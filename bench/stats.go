package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// nearestRank reports the 1-based rank of the nearest-rank p-quantile of n
// samples: the smallest rank with at least p·n samples at or below it. The
// epsilon keeps p = k/n from rounding up past rank k.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1), or NaN
// for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// tailLevel reports the highest percentile level that still has at least
// ten samples beyond it among n samples: (n-10)/n, so 0.90 at n = 100 and
// 0.975 at n = 400. ok is false when n < 11 and no level qualifies.
func tailLevel(n int) (p float64, ok bool) {
	if n < 11 {
		return 0, false
	}
	return float64(n-10) / float64(n), true
}

// median is the middle sample, or the mean of the two middle samples for
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4) — the definition the
// benchmark's spread rule is stated in. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// runtimeStats is a snapshot of the Go runtime's cumulative allocation and
// GC counters.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return runtimeStats{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcCPU:        samples[3].Value.Float64(),
		totalCPU:     samples[4].Value.Float64(),
	}
}

// liveHeap reads the heap marked live by the most recent GC cycle. Unlike
// RSS it does not depend on when the OS reclaims pages, so it repeats.
func liveHeap() uint64 { return readUint64("/gc/heap/live:bytes") }

// heapObjects reads the bytes of heap objects now: the live heap plus
// garbage not yet swept, so at least what a collection would find live.
func heapObjects() uint64 { return readUint64("/memory/classes/heap/objects:bytes") }

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
