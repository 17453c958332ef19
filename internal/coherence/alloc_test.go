package coherence

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gs1280/internal/memctrl"
	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// chaseSystem builds a 2x1 fabric with full-size caches and regions large
// enough that a multi-MB dependent chase misses L2 on every access.
func chaseSystem() (*sim.Engine, *System) {
	eng := sim.NewEngine()
	topo := topology.NewTorus(2, 1)
	net := network.New(eng, topo, network.DefaultParams())
	params := DefaultParams()
	amap := NewAddressMap(topo.N(), 16<<20, params.LineBytes)
	return eng, NewSystem(eng, net, amap, params, memctrl.DefaultParams())
}

// chase runs count dependent accesses over a dataset of lines cache
// lines starting at base, one access in flight at a time, issued from
// node 0. The done callback is bound once: the measured path is purely
// the protocol, memory controller, network and engine — exactly the
// steady-state miss cycle.
func chase(eng *sim.Engine, s *System, base int64, lines, count int, write bool) {
	i := 0
	var step func(sim.Time)
	step = func(sim.Time) {
		if i >= count {
			return
		}
		addr := base + int64(i%lines)*64
		i++
		s.Access(0, addr, write, step)
	}
	step(0)
	eng.Run()
}

// checkMissPathAllocs warms a fresh system with one lap over an 8 MB
// dataset in node 0's region (node 1's if remote): the lap creates every
// directory entry and grows the message pool, rings and event wheel to
// steady state. Two measured windows then revisit lines and must each
// run at 0 heap allocations and 0 allocated bytes per access: one inside
// the home's dense directory window, and one starting just past it
// (2 MB into the region), where every lookup goes through the spill
// table.
func checkMissPathAllocs(t *testing.T, name string, remote, write bool) {
	t.Helper()
	eng, s := chaseSystem()
	base := s.amap.RegionBase(0)
	if remote {
		base = s.amap.RegionBase(1)
	}
	// 8 MB dataset: far beyond the 1.75 MB L2, so every lap misses.
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, write)

	const ops = 20000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, w := range []struct {
		dir string
		off int64
	}{{"dense", 0}, {"spill", dirDenseSlots * s.params.LineBytes}} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		chase(eng, s, base+w.off, lines, ops, write)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / ops
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
		t.Logf("%s, %s directory: %.4f allocs/op, %.3f B/op", name, w.dir, allocs, bytes)
		if allocs > 0.01 {
			t.Errorf("%s path (%s directory) allocates %.4f allocs/op, want 0", name, w.dir, allocs)
		}
		if bytes > 1 {
			t.Errorf("%s path (%s directory) allocates %.2f bytes/op, want 0", name, w.dir, bytes)
		}
	}
}

// TestCoherenceFastPathAllocs is the CI regression guard for the
// steady-state miss path: a read miss — local or remote, with its line's
// directory entry in the dense window or the spill table — must run the
// full MAF/directory/Zbox/fill cycle without a single heap allocation.
// Bytes/op is asserted too, not just allocs/op: the 11 B/op this suite
// carried before PR 4 came from rare-but-large amortized events (a spill
// table rehashing on a lookup, the open-page ring reallocating every few
// hundred page opens) that a malloc-count guard rounds away. The byte
// tolerance covers the measurement scaffolding itself (one closure per
// chase call).
func TestCoherenceFastPathAllocs(t *testing.T) {
	checkMissPathAllocs(t, "local read-miss", false, false)
	checkMissPathAllocs(t, "remote read-miss", true, false)
}

// TestCoherenceWriteMissPathAllocs extends the guard to the store path:
// read-modify-write misses exercise MAF reuse with exclusive grants and
// must be equally allocation-free — in counts and bytes, in both
// directory windows — in steady state.
func TestCoherenceWriteMissPathAllocs(t *testing.T) {
	checkMissPathAllocs(t, "write-miss", false, true)
}

// TestDirEntryQueueMemoryBounded guards the transaction queue's
// compaction: a line that stays contended for its whole lifetime (the
// queue never fully drains, so the reset-when-empty path never fires)
// must still keep its backing array at O(peak depth), not O(total
// requests) — the leak class internal/network's rings fixed in PR 2.
func TestDirEntryQueueMemoryBounded(t *testing.T) {
	var e dirEntry
	const total, depth = 100000, 8
	for i := 0; i < depth; i++ {
		e.pushQueue(homeMsg{from: topology.NodeID(i % 4)})
	}
	for i := 0; i < total; i++ {
		e.pushQueue(homeMsg{from: topology.NodeID(i % 4)})
		e.popQueue() // depth stays at 8+1; the queue is never empty
	}
	if got := cap(e.queue); got > 16*depth {
		t.Fatalf("queue cap %d after %d messages at depth %d; dead prefix not compacted",
			got, total, depth)
	}
}

// BenchmarkReadMissLocal measures the per-access cost of the local
// steady-state read-miss path; -benchmem should report 0 allocs/op.
func BenchmarkReadMissLocal(b *testing.B) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(0)
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, false)
	b.ReportAllocs()
	b.ResetTimer()
	chase(eng, s, base, lines, b.N, false)
}

// BenchmarkReadMissRemote measures the 1-hop remote read-miss path
// (request and response cross the network); 0 allocs/op expected.
func BenchmarkReadMissRemote(b *testing.B) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(1)
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, false)
	b.ReportAllocs()
	b.ResetTimer()
	chase(eng, s, base, lines, b.N, false)
}
