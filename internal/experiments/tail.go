package experiments

import (
	"fmt"

	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/traffic"
	"gs1280/internal/workload"
)

// The tail-* experiments measure what the mean-latency sweeps hide: the
// latency distribution's tail, and what criticality-aware arbitration does
// to it. The paper's own methodology reports means (Figs 12-15); modern
// service-level analysis lives at p99 and beyond, so this family sweeps
// offered load with a mixed-criticality packet population and compares
// plain FIFO arbitration against the criticality+age policy — on a healthy
// fabric (tail-satur), with failed wrap cables (tail-degraded), and at the
// machine level where the metric that matters is L2-miss latency
// (tail-miss). With arbitration off the simulations are bit-identical to
// the pre-criticality model; the runner's golden tests pin that.

// tailBgFrac and tailCtlFrac set the injected criticality mix: roughly the
// writeback-to-demand ratio a write-allocate cache produces, plus a thin
// control stream.
const (
	tailBgFrac  = 0.30
	tailCtlFrac = 0.10
)

// tailVariant is one arbitration policy of tail-miss's machine sweep.
type tailVariant struct {
	name    string
	critArb bool
}

var tailVariants = []tailVariant{
	{"fifo", false},
	{"crit", true},
}

// fq formats a picosecond quantile as nanoseconds for a table cell.
func fq(ps int64) string { return f1(float64(ps) / 1000) }

// arbitrations is the variant axis of the open-loop tail sweeps.
var arbitrations = openAxis{"arbitration", []openVariant{
	{"fifo", func(*openPoint) {}},
	{"crit", func(p *openPoint) { p.critArb = true }},
}}

// tailCols are the distribution columns of the open-loop tail sweeps.
var tailCols = []openCol{
	colDelivered,
	{"avg lat ns", colLatency.cell},
	{"p50 ns", func(r traffic.Result) string { return fq(r.Lat.P50) }},
	{"p95 ns", func(r traffic.Result) string { return fq(r.Lat.P95) }},
	colP99,
	{"p99.9 ns", func(r traffic.Result) string { return fq(r.Lat.P999) }},
	{"demand p99 ns", func(r traffic.Result) string { return fq(r.DemandLat.P99) }},
	{"bg p99 ns", func(r traffic.Result) string { return fq(r.BgLat.P99) }},
	{"queue p50 ns", func(r traffic.Result) string { return fq(r.QueueRes.P50) }},
	{"queue p99 ns", func(r traffic.Result) string { return fq(r.QueueRes.P99) }},
	{"queue p99.9 ns", func(r traffic.Result) string { return fq(r.QueueRes.P999) }},
}

// tailSatur sweeps arbitration x offered load for uniform traffic with the
// tail mix on the healthy 8x8 torus.
var tailSatur = &openFamily{
	id:       "tail-satur",
	title:    "Tail latency vs offered load: mixed-criticality uniform traffic on the 64P (8x8) torus",
	base:     openPoint{bgFrac: tailBgFrac, ctlFrac: tailCtlFrac},
	variants: arbitrations,
	cols:     tailCols,
	notes: []string{
		"fifo rows are bit-identical to the pre-criticality arbiter; crit rows prefer demand packets within a class",
		"prioritization buys its p99 at the background class's expense — compare demand p99 against bg p99",
	},
}

// tailDegraded is tail-satur with failed cables armed during warmup.
// Healthy rows live in tail-satur, so the sweep starts at one failed cable.
var tailDegraded = &openFamily{
	id:       "tail-degraded",
	title:    "Tail latency on a degraded fabric: mixed-criticality uniform traffic, 8x8 torus, failed wrap cables",
	base:     tailSatur.base,
	variants: arbitrations,
	level:    faultAxis(1, 2),
	cols:     tailCols,
	notes: []string{
		"faults land mid-warmup (the degraded-satur schedule); detour queues stretch the tail before the mean moves",
		"healthy baselines are tail-satur's rows; same seeds, so columns compare point for point",
	},
}

// tailMissPoint measures miss-latency quantiles for GUPS on one GS1280
// size, with criticality-aware arbitration per variant — the machine-level
// view where prioritizing demand misses over victim writebacks is supposed
// to pay off.
func tailMissPoint(env *Env, n int, v tailVariant, warm, measure sim.Time) Part {
	type args struct {
		n             int
		warm, measure sim.Time
	}
	w, h := machine.StandardShape(n)
	r := gsRig(machine.GS1280Config{W: w, H: h, RegionBytes: 16 << 20, CritArb: v.critArb})
	cells := measureRig(env, r, args{n, warm, measure}, func(mm machine.Machine) []string {
		m := mm.(*machine.GS1280) // the histograms are a GS1280's
		total := int64(n) * m.RegionBytes()
		for i := 0; i < n; i++ {
			m.CPU(i).Run(workload.NewGUPS(0, total, 1<<30, uint64(i*104729+7)), nil)
		}
		eng := m.Engine()
		begin := eng.Now()
		eng.RunUntil(begin + warm)
		m.ResetStats() // histograms reset with the counters: the window is the measure interval
		t0 := eng.Now()
		eng.RunUntil(begin + warm + measure)
		var ops uint64
		for i := 0; i < n; i++ {
			ops += m.CPU(i).Stats().Ops
		}
		rate := 0.0
		if iv := eng.Now() - t0; iv > 0 {
			rate = float64(ops) / iv.Seconds() / 1e6
		}
		miss := m.Coh.MissLatencyHist().Quantiles()
		packet := m.Net.PacketLatency()
		pq := packet.Quantiles()
		res := m.Net.ResidencyHist().Quantiles()
		return []string{
			f1(rate),
			fq(miss.P50), fq(miss.P95), fq(miss.P99), fq(miss.P999),
			fq(pq.P50), fq(pq.P99),
			fq(res.P99),
		}
	})
	return Part{Rows: [][]string{append([]string{fmt.Sprintf("%d", n), v.name}, cells...)}}
}

// tailMissSpec exposes the machine-level sweep as one unit per
// (size, arbitration) cell.
func tailMissSpec() Spec {
	plan := func(q bool) ([]int, sim.Time, sim.Time) {
		if q {
			return []int{16}, quickWarm, quickMeasure
		}
		return []int{16, 32}, 20 * sim.Microsecond, 80 * sim.Microsecond // the machine-size sweep
	}
	return Spec{
		ID: "tail-miss",
		Units: func(q bool) []Unit {
			counts, warm, measure := plan(q)
			type cell struct {
				n int
				v tailVariant
			}
			var cells []cell
			for _, n := range counts {
				for _, v := range tailVariants {
					cells = append(cells, cell{n, v})
				}
			}
			return sweepUnits(cells,
				func(c cell) string { return fmt.Sprintf("tail-miss[%dp,%s]", c.n, c.v.name) },
				func(env *Env, c cell) Part { return tailMissPoint(env, c.n, c.v, warm, measure) })
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := assemble(&Table{
				ID:    "tail-miss",
				Title: "GUPS on GS1280: L2-miss and packet latency tails, FIFO vs criticality-aware arbitration",
				Header: []string{"CPUs", "arbitration", "GUPS Mup/s",
					"miss p50 ns", "miss p95 ns", "miss p99 ns", "miss p99.9 ns",
					"packet p50 ns", "packet p99 ns", "queue p99 ns"},
			}, parts)
			t.AddNote("fifo rows replay the pre-criticality machine bit for bit (the runner's golden tests pin this)")
			t.AddNote("crit arbitration defers victim/sharing writebacks behind demand misses in routers and memory controllers")
			return t
		},
	}
}
