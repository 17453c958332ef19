package main

import "runtime"

// calReference is the median thread CPU time of one calibration loop on
// the host the benchmark was defined on (a 2-vCPU KVM guest on a 2.1 GHz
// Xeon). It only fixes the unit: reported times read as seconds on that
// host.
const calReference = 0.0162

// calTable is the calibration loop's 4 MB working set. A global array is
// not Go heap, so it does not count in the live-heap metric.
var calTable [1 << 19]uint64

// calEvent is one pending event of the calibration loop.
type calEvent struct{ at, key uint64 }

// calibrate returns the thread CPU seconds of a fixed discrete-event loop
// written against the standard library alone: a binary heap of 256
// pending events, where each dispatched event updates a random word of
// calTable and schedules its successor. It has the shape of the
// simulator's work — heap-ordered dispatch and random memory access — but
// shares none of its code, so it measures the host, not the program under
// test.
func calibrate() float64 {
	const pending, events = 256, 100_000
	h := make([]calEvent, pending)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h {
		h[i] = calEvent{at: uint64(i), key: next()} // ascending: already a heap
	}
	less := func(i, j int) bool { return h[i].at < h[j].at || h[i].at == h[j].at && h[i].key < h[j].key }

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for n := 0; n < events; n++ {
		slot := &calTable[h[0].key%uint64(len(calTable))]
		*slot += h[0].at
		h[0] = calEvent{at: h[0].at + 1 + *slot%97, key: next()}
		for i := 0; ; { // sift down
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && less(r, l) {
				l = r
			}
			if !less(l, i) {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	return (threadCPU() - c0).Seconds()
}
