package traffic

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gs1280/internal/network"
	"gs1280/internal/sim"
)

// TestOpenLoopInjectionZeroAlloc is the CI guard for open-loop injection:
// a delivered packet's record goes back to the run's free list and carries
// a later packet, so a Run's allocations do not grow with the packets it offers.
// It runs the fabric benchmark's point (an 8x8 torus at 40 packets per
// node per microsecond, 5 µs of warm-up) for two measure windows, one 4x
// longer. The longer run may allocate no more, in objects or bytes, beyond
// a slack for the packet pool and link queues, which keep reaching
// slightly deeper peaks: 0.01 objects and 2 bytes per extra packet, under
// 1% of the two objects and 340 bytes a packet cost when every offered
// packet allocated its own Packet and callback.
func TestOpenLoopInjectionZeroAlloc(t *testing.T) {
	measure := func(window sim.Time) (mallocs, bytes, delivered uint64) {
		net := newNet(8, 8, nil)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := Run(net, Config{
			Pattern: Uniform(),
			Rate:    40.0 / 1000,
			Class:   network.Request,
			Seed:    3,
			Warmup:  5 * sim.Microsecond,
			Measure: window,
		})
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, r.Delivered
	}
	shortAllocs, shortBytes, shortPkts := measure(5 * sim.Microsecond)
	longAllocs, longBytes, longPkts := measure(20 * sim.Microsecond)
	if longPkts < 3*shortPkts {
		t.Fatalf("the 4x window delivered %d packets against %d", longPkts, shortPkts)
	}
	extra := float64(longPkts - shortPkts)
	allocs := (float64(longAllocs) - float64(shortAllocs)) / extra
	bytes := (float64(longBytes) - float64(shortBytes)) / extra
	if allocs > 0.01 {
		t.Errorf("open-loop injection allocates %.4f objects per extra packet (%d vs %d over %.0f packets), want 0",
			allocs, longAllocs, shortAllocs, extra)
	}
	if bytes > 2 {
		t.Errorf("open-loop injection allocates %.2f bytes per extra packet (%d vs %d over %.0f packets), want 0",
			bytes, longBytes, shortBytes, extra)
	}
}
