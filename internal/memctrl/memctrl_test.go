package memctrl

import (
	"testing"

	"gs1280/internal/sim"
)

func newCtl() (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultParams())
}

// access performs one access, advances the engine to its completion and
// returns its latency.
func access(t *testing.T, eng *sim.Engine, c *Controller, addr int64, write bool) sim.Time {
	t.Helper()
	issued := eng.Now()
	done := c.AccessAt(addr, write)
	eng.RunUntil(done)
	return done - issued
}

func TestFirstAccessIsPageMiss(t *testing.T) {
	eng, c := newCtl()
	lat := access(t, eng, c, 0, false)
	if lat != DefaultParams().MissLatency {
		t.Fatalf("cold access latency = %v, want %v", lat, DefaultParams().MissLatency)
	}
	if c.PageMisses() != 1 || c.PageHits() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", c.PageHits(), c.PageMisses())
	}
}

func TestSequentialAccessesHitOpenPage(t *testing.T) {
	eng, c := newCtl()
	access(t, eng, c, 0, false)
	// Same 2 KB page, different line.
	lat := access(t, eng, c, 64, false)
	if lat != DefaultParams().HitLatency {
		t.Fatalf("open-page latency = %v, want %v", lat, DefaultParams().HitLatency)
	}
	if c.PageHits() != 1 {
		t.Fatalf("page hits = %d, want 1", c.PageHits())
	}
}

func TestLargeStrideMissesEveryPage(t *testing.T) {
	// Fig 5: strides beyond the page size turn every access into a
	// closed-page access.
	eng, c := newCtl()
	stride := int64(16 * 1024)
	for i := int64(0); i < 32; i++ {
		access(t, eng, c, i*stride, false)
	}
	if c.PageHits() != 0 {
		t.Fatalf("page hits = %d, want 0 at 16KB stride", c.PageHits())
	}
	if c.PageMisses() != 32 {
		t.Fatalf("page misses = %d, want 32", c.PageMisses())
	}
}

func TestSmallStrideHitRate(t *testing.T) {
	// 64-byte stride within 2 KB pages: 31 of every 32 accesses hit.
	eng, c := newCtl()
	for i := int64(0); i < 64; i++ {
		access(t, eng, c, i*64, false)
	}
	if c.PageMisses() != 2 {
		t.Fatalf("page misses = %d, want 2 (one per page)", c.PageMisses())
	}
	if c.PageHits() != 62 {
		t.Fatalf("page hits = %d, want 62", c.PageHits())
	}
}

func TestBankConflictReopensPage(t *testing.T) {
	eng, c := newCtl()
	p := DefaultParams()
	// Find a second row hashing to bank 0 (the hash spreads regions, so
	// search rather than assume modulo behaviour).
	rowB := int64(1)
	for c.bankOf(rowB) != c.bankOf(0) {
		rowB++
	}
	addrB := rowB * p.PageBytes
	for i := 0; i < 4; i++ {
		access(t, eng, c, 0, false)
		access(t, eng, c, addrB, false)
	}
	if c.PageHits() != 0 {
		t.Fatalf("conflicting rows produced %d page hits, want 0", c.PageHits())
	}
}

func TestBandwidthBound(t *testing.T) {
	// Issue a large burst in one instant: completion time must be at
	// least the serialization time of all lines at 6.15 GB/s.
	eng, c := newCtl()
	const lines = 1000
	var last sim.Time
	for i := 0; i < lines; i++ {
		last = max(last, c.AccessAt(int64(i)*64, false))
	}
	eng.RunUntil(last)
	minTime := sim.Time(lines-1) * sim.TransferTime(64, DefaultParams().Bandwidth)
	if last < minTime {
		t.Fatalf("burst finished at %v, faster than bus bound %v", last, minTime)
	}
}

func TestReadWriteCounters(t *testing.T) {
	eng, c := newCtl()
	access(t, eng, c, 0, false)
	access(t, eng, c, 64, true)
	access(t, eng, c, 128, true)
	if c.Reads() != 1 || c.Writes() != 2 {
		t.Fatalf("reads/writes = %d/%d, want 1/2", c.Reads(), c.Writes())
	}
}

func TestUtilization(t *testing.T) {
	eng, c := newCtl()
	// One access occupies the bus for the transfer time; waiting long
	// after, utilization decays toward zero.
	access(t, eng, c, 0, false)
	eng.RunUntil(10 * sim.Microsecond)
	if u := c.Utilization(); u <= 0 || u > 0.01 {
		t.Fatalf("utilization = %v, want small positive", u)
	}
	c.ResetStats()
	if c.Utilization() != 0 || c.Reads() != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestResetPreservesPageState(t *testing.T) {
	eng, c := newCtl()
	access(t, eng, c, 0, false)
	c.ResetStats()
	lat := access(t, eng, c, 64, false)
	if lat != DefaultParams().HitLatency {
		t.Fatalf("post-reset latency = %v, want open-page hit %v", lat, DefaultParams().HitLatency)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid params did not panic")
		}
	}()
	New(sim.NewEngine(), Params{})
}

func BenchmarkControllerAccess(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, DefaultParams())
	for i := 0; i < b.N; i++ {
		done := c.AccessAt(int64(i)*64, false)
		if i%256 == 255 {
			eng.RunUntil(done)
		}
	}
}
