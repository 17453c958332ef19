package coherence

import (
	"testing"

	"gs1280/internal/memctrl"
	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// testSystem builds a WxH GS1280-like coherence fabric with small caches
// (so tests can force evictions cheaply) unless full is true.
func testSystem(w, h int, full bool) (*sim.Engine, *System) {
	eng := sim.NewEngine()
	topo := topology.NewTorus(w, h)
	net := network.New(eng, topo, network.DefaultParams())
	params := DefaultParams()
	if !full {
		params.L1Bytes, params.L1Ways = 2*64, 2 // one set, two ways
		params.L2Bytes, params.L2Ways = 4*64, 2 // two sets, two ways
	}
	amap := NewAddressMap(topo.N(), 1<<20, params.LineBytes)
	return eng, NewSystem(eng, net, amap, params, memctrl.DefaultParams())
}

func accessSync(t *testing.T, eng *sim.Engine, s *System, node topology.NodeID, addr int64, write bool) sim.Time {
	t.Helper()
	var lat sim.Time = -1
	s.Access(node, addr, write, func(l sim.Time) { lat = l })
	eng.Run()
	if lat < 0 {
		t.Fatalf("access node=%d addr=%#x write=%v never completed", node, addr, write)
	}
	return lat
}

func TestLocalMissLatencyMatchesPaper(t *testing.T) {
	// Local open-page dependent load: 83 ns (Fig 4/13). First access pays
	// the closed page (130 ns); a second access to the same page is 83.
	// Consecutive lines alternate between the two Zboxes, so lines 0 and
	// 64 warm one page on each controller; line 128 then hits ctl0's page.
	eng, s := testSystem(4, 4, true)
	cold := accessSync(t, eng, s, 0, 0, false)
	accessSync(t, eng, s, 0, 64, false)
	warm := accessSync(t, eng, s, 0, 128, false)
	wantCold := 130 * sim.Nanosecond
	wantWarm := 83 * sim.Nanosecond
	if cold != wantCold {
		t.Errorf("cold local miss = %v, want %v", cold, wantCold)
	}
	if warm != wantWarm {
		t.Errorf("open-page local miss = %v, want %v", warm, wantWarm)
	}
}

func TestCacheHitLatencies(t *testing.T) {
	eng, s := testSystem(4, 4, true)
	accessSync(t, eng, s, 0, 0, false) // fill
	// Now in L1.
	if lat := accessSync(t, eng, s, 0, 0, false); lat != DefaultParams().L1Latency {
		t.Errorf("L1 hit = %v, want %v", lat, DefaultParams().L1Latency)
	}
	// Evict from L1 only: fill other lines mapping to the same L1 set.
	// L1 is 64KB 2-way: lines 64KB/2=32KB apart share a set.
	accessSync(t, eng, s, 0, 32*1024, false)
	accessSync(t, eng, s, 0, 64*1024, false)
	if lat := accessSync(t, eng, s, 0, 0, false); lat != DefaultParams().L2Latency {
		t.Errorf("L2 hit = %v, want %v (paper: 12 cycles = 10.4ns)", lat, DefaultParams().L2Latency)
	}
}

func TestRemoteCleanLatencyOneHop(t *testing.T) {
	// Read a line homed at the module partner (1 module hop): 139 ns
	// open-page (Fig 13). Warm the page first via the home itself.
	eng, s := testSystem(4, 4, true)
	partner := topology.NodeID(4) // (0,1), module partner of node 0
	base := s.amap.RegionBase(partner)
	accessSync(t, eng, s, partner, base, false)    // warm ctl0's page
	accessSync(t, eng, s, partner, base+64, false) // warm ctl1's page
	lat := accessSync(t, eng, s, 0, base+128, false)
	want := 139 * sim.Nanosecond
	if lat != want {
		t.Errorf("1-hop module read = %v, want %v", lat, want)
	}
}

func TestRemoteLatencyFourHops(t *testing.T) {
	// Fig 13 worst case in a 4x4 torus: (0,0) -> (2,2) is 259 ns in the
	// paper; our calibration lands within a few percent.
	eng, s := testSystem(4, 4, true)
	far := topology.NodeID(2*4 + 2)
	base := s.amap.RegionBase(far)
	accessSync(t, eng, s, far, base, false)    // warm ctl0's page
	accessSync(t, eng, s, far, base+64, false) // warm ctl1's page
	lat := accessSync(t, eng, s, 0, base+128, false)
	if lat < 235*sim.Nanosecond || lat > 265*sim.Nanosecond {
		t.Errorf("4-hop read = %v, want ~247-259ns", lat)
	}
}

func TestReadDirtyThreeHop(t *testing.T) {
	// Node A writes a line homed at H; node B reads it. The read must be
	// serviced by A (3-hop forward), be counted as a read-dirty, and B
	// must observe A's value.
	eng, s := testSystem(4, 4, true)
	home := topology.NodeID(5)
	addr := s.amap.RegionBase(home)
	writer := topology.NodeID(0)
	reader := topology.NodeID(10)
	accessSync(t, eng, s, writer, addr, true) // value 1, exclusive at writer
	before := s.Stats(home).ReadDirty
	accessSync(t, eng, s, reader, addr, false)
	if got := s.Stats(home).ReadDirty; got != before+1 {
		t.Fatalf("read-dirty count = %d, want %d", got, before+1)
	}
	if v := s.LineValue(addr); v != 1 {
		t.Fatalf("line value = %d, want 1", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	eng, s := testSystem(4, 4, true)
	addr := s.amap.RegionBase(3)
	// Three nodes read (share) the line.
	for _, n := range []topology.NodeID{0, 1, 2} {
		accessSync(t, eng, s, n, addr, false)
	}
	// Node 6 writes: all sharers must be invalidated.
	accessSync(t, eng, s, 6, addr, true)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Old sharers re-read and see the new value via a 3-hop dirty read.
	accessSync(t, eng, s, 0, addr, false)
	if v := s.LineValue(addr); v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	// A node holding a Shared copy that writes must upgrade, not write in
	// place.
	eng, s := testSystem(4, 4, true)
	addr := s.amap.RegionBase(2)
	accessSync(t, eng, s, 0, addr, false) // shared at 0
	before := s.Stats(0).Upgrades
	accessSync(t, eng, s, 0, addr, true)
	if got := s.Stats(0).Upgrades; got != before+1 {
		t.Fatalf("upgrades = %d, want %d", got, before+1)
	}
	if v := s.LineValue(addr); v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuccessiveWritesAccumulate(t *testing.T) {
	eng, s := testSystem(4, 4, true)
	addr := s.amap.RegionBase(1)
	for i := 0; i < 5; i++ {
		accessSync(t, eng, s, topology.NodeID(i%4), addr, true)
	}
	if v := s.LineValue(addr); v != 5 {
		t.Fatalf("value = %d, want 5", v)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// Small caches: writing three conflicting lines forces a dirty victim.
	eng, s := testSystem(4, 4, false)
	// L2 is 2 sets x 2 ways of 64B: lines 128B apart share a set.
	addrs := []int64{0, 128, 256}
	for _, a := range addrs {
		accessSync(t, eng, s, 0, a, true)
	}
	if got := s.Stats(0).VictimsSent; got == 0 {
		t.Fatal("no victim writeback for dirty eviction")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All three lines retain their single increments.
	for _, a := range addrs {
		if v := s.LineValue(a); v != 1 {
			t.Fatalf("line %#x value = %d, want 1", a, v)
		}
	}
}

func TestReaccessAfterVictimBlocksUntilAck(t *testing.T) {
	// Re-reading a just-evicted dirty line must return its written value
	// (the access stalls on the unacked victim, then refetches).
	eng, s := testSystem(4, 4, false)
	accessSync(t, eng, s, 0, 0, true)
	accessSync(t, eng, s, 0, 128, true)
	// Evict line 0 and immediately re-read it in the same event batch.
	var v0 sim.Time = -1
	s.Access(0, 256, true, func(sim.Time) {})
	s.Access(0, 0, false, func(l sim.Time) { v0 = l })
	eng.Run()
	if v0 < 0 {
		t.Fatal("re-read never completed")
	}
	if v := s.LineValue(0); v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMAFLimitsOutstanding(t *testing.T) {
	// More concurrent misses than MAF entries: all complete, throughput
	// is bounded but correctness intact.
	eng, s := testSystem(4, 4, true)
	done := 0
	for i := 0; i < 100; i++ {
		s.Access(0, s.amap.RegionBase(5)+int64(i)*64, false, func(sim.Time) { done++ })
	}
	eng.Run()
	if done != 100 {
		t.Fatalf("completed %d/100 under MAF pressure", done)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergedMissesShareOneTransaction(t *testing.T) {
	eng, s := testSystem(4, 4, true)
	addr := s.amap.RegionBase(9)
	done := 0
	for i := 0; i < 4; i++ {
		s.Access(0, addr+int64(i)*8, false, func(sim.Time) { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d/4 merged accesses", done)
	}
	// One miss transaction: exactly one home read for the four accesses.
	if misses := s.Stats(0).Misses; misses != 4 {
		t.Fatalf("miss count = %d, want 4 (all counted)", misses)
	}
}

func TestNAKRetryEventuallySucceeds(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.NewTorus(4, 4)
	net := network.New(eng, topo, network.DefaultParams())
	params := DefaultParams()
	params.NAKThreshold = 1
	amap := NewAddressMap(topo.N(), 1<<20, params.LineBytes)
	s := NewSystem(eng, net, amap, params, memctrl.DefaultParams())
	// Hammer one line from every node: queues exceed the threshold and
	// NAKs fly, but every access completes.
	done := 0
	for n := 0; n < 16; n++ {
		for i := 0; i < 4; i++ {
			s.Access(topology.NodeID(n), 0, true, func(sim.Time) { done++ })
		}
	}
	eng.Run()
	if done != 64 {
		t.Fatalf("completed %d/64 accesses with NAKs", done)
	}
	if v := s.LineValue(0); v != 64 {
		t.Fatalf("value = %d, want 64 (no lost updates under retry)", v)
	}
	totalNAKs := uint64(0)
	for n := 0; n < 16; n++ {
		totalNAKs += s.Stats(topology.NodeID(n)).NAKs
	}
	if totalNAKs == 0 {
		t.Fatal("threshold 1 produced no NAKs")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStripedMapSpreadsHotSpotAcrossPair(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	partner := make([]topology.NodeID, 16)
	for n := range partner {
		c := topo.Coord(topology.NodeID(n))
		if c.Y%2 == 0 {
			partner[n] = topo.Node(topology.Coord{X: c.X, Y: c.Y + 1})
		} else {
			partner[n] = topo.Node(topology.Coord{X: c.X, Y: c.Y - 1})
		}
	}
	m := NewStripedAddressMap(16, 1<<20, 64, partner)
	counts := map[topology.NodeID]int{}
	for i := int64(0); i < 64; i++ {
		home, ctl := m.Home(i * 64)
		if ctl != 0 && ctl != 1 {
			t.Fatalf("bad controller %d", ctl)
		}
		counts[home]++
	}
	// Region 0 lines must split evenly between node 0 and its partner 4.
	if counts[0] != 32 || counts[4] != 32 {
		t.Fatalf("striped split = %v, want 32/32 across 0 and 4", counts)
	}
}

func TestAddressMapValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewAddressMap(0, 1<<20, 64) },
		func() { NewAddressMap(4, 100, 64) },
		func() { NewStripedAddressMap(2, 1<<20, 64, []topology.NodeID{0, 0}) },
		func() {
			m := NewAddressMap(2, 1<<20, 64)
			m.Home(-1)
		},
		func() {
			m := NewAddressMap(2, 1<<20, 64)
			m.Home(2 << 20)
		},
		func() {
			// 2^34 slots per home: more than a directory cell can key.
			eng := sim.NewEngine()
			net := network.New(eng, topology.NewTorus(2, 1), network.DefaultParams())
			NewSystem(eng, net, NewAddressMap(2, 1<<40, 64), DefaultParams(), memctrl.DefaultParams())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid address map use did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReaccessFromCompletionCallback(t *testing.T) {
	// Regression: an access issued from inside another access's completion
	// callback (the dependent-load pattern) must see the freshly filled
	// cache, not the dying MAF entry. This once lost the second access
	// entirely.
	eng, s := testSystem(2, 2, true)
	var lats []sim.Time
	var chase func(addr int64, remaining int)
	chase = func(addr int64, remaining int) {
		s.Access(0, addr, false, func(l sim.Time) {
			lats = append(lats, l)
			if remaining > 0 {
				chase(addr+16, remaining-1) // same line for the first few
			}
		})
	}
	chase(0, 6)
	eng.Run()
	if len(lats) != 7 {
		t.Fatalf("completed %d chained accesses, want 7", len(lats))
	}
	// Accesses 2.. on the same line are L1 hits.
	if lats[1] != DefaultParams().L1Latency {
		t.Fatalf("second access latency = %v, want L1 hit", lats[1])
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
