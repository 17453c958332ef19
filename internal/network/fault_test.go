package network

import (
	"testing"

	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// eastKey names the East link out of node a on topo.
func eastKey(topo *topology.Topology, x, y int) topology.LinkKey {
	a := topo.Node(topology.Coord{X: x, Y: y})
	b := topo.Node(topology.Coord{X: x + 1, Y: y})
	return topology.LinkKey{From: a, To: b, Dir: topology.East}
}

// TestFailLinkRerouteDelivery is the core degraded-fabric scenario: a
// stream of packets whose only minimal path crosses one link, the link
// fails mid-stream, and every packet must still arrive exactly once —
// queued packets requeued through the recomputed routes, in-flight ones
// completing their wire hop and rerouting at the far router. The fault
// audit trail (reroutes, non-minimal hops) must show the detours, and
// every adaptive credit must come home.
func TestFailLinkRerouteDelivery(t *testing.T) {
	eng, n := testNet(4, 4)
	const count = 200
	delivered := 0
	for i := 0; i < count; i++ {
		// 0 -> 1 has exactly one minimal hop (East), so the whole stream
		// queues on the link about to die.
		n.Send(&Packet{Src: 0, Dst: 1, Class: Request, Size: DataPacketSize,
			OnDeliver: func() { delivered++ }})
	}
	// Fail the cable while most of the stream is still queued: ~23 ns
	// serialization per data packet means packet #3 or so is on the wire
	// at t = 100 ns.
	k := eastKey(n.Topology(), 0, 0)
	eng.At(100*sim.Nanosecond, func() { n.FailLink(k) })
	eng.Run()
	if delivered != count {
		t.Fatalf("delivered %d of %d packets across the failure", delivered, count)
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight after drain: %d", n.InFlight())
	}
	if occ := n.AdaptiveOccupancy(); occ != 0 {
		t.Fatalf("adaptive occupancy after drain = %d, want 0 (credits leaked across the failure)", occ)
	}
	if n.Reroutes() == 0 {
		t.Fatal("no packets were requeued off the failed link")
	}
	if n.NonMinimalHops() == 0 {
		t.Fatal("no non-minimal hops counted; detours went unaccounted")
	}
	if !n.Degraded() {
		t.Fatal("network does not report degraded after FailLink")
	}
	// The dead wire must not have moved a byte after the failure: its
	// packet count stays at whatever it pumped in the first 100 ns.
	st := linkStatFor(t, n, k)
	if maxMoved := uint64(100 / 23); st.Packets > maxMoved {
		t.Fatalf("failed link pumped %d packets; at most %d fit before the failure", st.Packets, maxMoved)
	}
}

func linkStatFor(t *testing.T, n *Network, k topology.LinkKey) LinkStat {
	t.Helper()
	for _, st := range n.LinkStats() {
		if st.From == k.From && st.To == k.To && st.Dir == k.Dir {
			return st
		}
	}
	t.Fatalf("no link stat for %v", k)
	return LinkStat{}
}

// TestFailRestoreRoundTrip fails a link, drains traffic, restores it, and
// checks the fabric returns to healthy routing: Degraded clears, and new
// traffic uses the restored wire again.
func TestFailRestoreRoundTrip(t *testing.T) {
	eng, n := testNet(4, 4)
	k := eastKey(n.Topology(), 0, 0)
	for i := 0; i < 50; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: Request, Size: DataPacketSize, OnDeliver: func() {}})
	}
	eng.At(50*sim.Nanosecond, func() { n.FailLink(k) })
	eng.Run()
	if !n.Degraded() || len(n.FailedLinks()) != 2 {
		t.Fatalf("degraded=%v failed=%v after FailLink", n.Degraded(), n.FailedLinks())
	}
	n.RestoreLink(k)
	if n.Degraded() || len(n.FailedLinks()) != 0 {
		t.Fatalf("degraded=%v failed=%v after RestoreLink", n.Degraded(), n.FailedLinks())
	}
	before := linkStatFor(t, n, k).Packets
	delivered := 0
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: Request, Size: DataPacketSize,
			OnDeliver: func() { delivered++ }})
	}
	eng.Run()
	if delivered != 20 {
		t.Fatalf("delivered %d of 20 after restore", delivered)
	}
	if after := linkStatFor(t, n, k).Packets; after != before+20 {
		t.Fatalf("restored link pumped %d packets, want %d", after-before, 20)
	}
	if n.Reroutes() == 0 {
		t.Fatal("pre-failure backlog was not rerouted (~2 of 50 packets fit in 50 ns)")
	}
}

// TestFailLinkDoubleFaultPanics pins the driver contract: failing a failed
// link (either direction) and restoring a healthy one are bugs.
func TestFailLinkDoubleFaultPanics(t *testing.T) {
	_, n := testNet(4, 4)
	k := eastKey(n.Topology(), 0, 0)
	n.FailLink(k)
	mustPanic(t, "double fail", func() { n.FailLink(k) })
	mustPanic(t, "double fail via reverse", func() { n.FailLink(k.Reverse()) })
	n.RestoreLink(k)
	mustPanic(t, "restore healthy", func() { n.RestoreLink(k) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestFailedFabricStillDeliversRandomTraffic runs random all-pairs traffic
// over a torus with two failed cables (the §4.1 double-fault scenario) and
// checks conservation end to end.
func TestFailedFabricStillDeliversRandomTraffic(t *testing.T) {
	eng, n := testNet(8, 8)
	topo := n.Topology()
	n.FailLink(eastKey(topo, 7, 0)) // X wrap cable, row 0
	n.FailLink(topology.LinkKey{    // Y wrap cable, column 0
		From: topo.Node(topology.Coord{X: 0, Y: 7}),
		To:   topo.Node(topology.Coord{X: 0, Y: 0}),
		Dir:  topology.South,
	})
	rng := sim.NewRNG(17)
	const count = 2000
	delivered := 0
	for i := 0; i < count; i++ {
		n.Send(&Packet{
			Src: topology.NodeID(rng.Intn(64)), Dst: topology.NodeID(rng.Intn(64)),
			Class: Class(rng.Intn(3)), Size: CtlPacketSize,
			OnDeliver: func() { delivered++ }})
	}
	eng.Run()
	if delivered != count {
		t.Fatalf("delivered %d of %d on the degraded fabric", delivered, count)
	}
	if occ := n.AdaptiveOccupancy(); occ != 0 {
		t.Fatalf("adaptive occupancy after drain = %d", occ)
	}
}

// TestDirLinkIndexComplete pins the O(1) direction index behind linkAt:
// it must resolve every adjacency entry of every wiring to its exact link.
func TestDirLinkIndexComplete(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewTorus(4, 4), topology.NewTorus(8, 2),
		topology.NewShuffle(8, 2), topology.NewShuffle(4, 4), topology.NewMesh(3, 3),
	} {
		n := New(sim.NewEngine(), topo, DefaultParams())
		for id := 0; id < topo.N(); id++ {
			for i, e := range topo.Neighbors(topology.NodeID(id)) {
				k := topology.LinkKey{From: topology.NodeID(id), To: e.To, Dir: e.Dir}
				if got := n.linkAt(k); got != n.links[id][i] {
					t.Fatalf("%s: linkAt(%v) resolved the wrong link", topo.Name, k)
				}
			}
		}
	}
}

// TestBusySplitAcrossReset pins the busy-time attribution fix: a stats
// reset in the middle of a packet's serialization must split the busy
// interval exactly at the boundary — the closing window accrues only the
// elapsed part, the opening window inherits the remainder — so no window
// is inflated past 100% (the old code charged the whole packet to the
// start window and clamped the overflow away) and none is starved.
func TestBusySplitAcrossReset(t *testing.T) {
	eng, n := testNet(4, 4)
	p := DefaultParams()
	n.Send(&Packet{Src: 0, Dst: 1, Class: Response, Size: DataPacketSize, OnDeliver: func() {}})
	start := p.InjectLatency + p.RouterLatency // pump fires here
	ser := sim.TransferTime(DataPacketSize, p.LinkBandwidth)
	mid := start + ser/2 // reset lands mid-serialization
	k := eastKey(n.Topology(), 0, 0)

	eng.RunUntil(mid)
	if got, want := linkStatFor(t, n, k).Utilization, float64(mid-start)/float64(mid); got != want {
		t.Fatalf("pre-reset utilization = %v, want exactly %v (elapsed part only)", got, want)
	}
	n.ResetStats()
	end := start + ser + 10*sim.Nanosecond
	eng.RunUntil(end)
	// The new window runs mid..end and the wire was busy mid..start+ser.
	if got, want := linkStatFor(t, n, k).Utilization, float64(ser-ser/2)/float64(end-mid); got != want {
		t.Fatalf("post-reset utilization = %v, want exactly %v (inherited remainder)", got, want)
	}
}

// TestUtilizationNeverExceedsOne drives a link at saturation through
// repeated mid-flight resets; with the split in place the ratio is ≤ 1 by
// construction, with no clamp hiding an accounting bug.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	eng, n := testNet(4, 4)
	for i := 0; i < 300; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: Response, Size: DataPacketSize, OnDeliver: func() {}})
	}
	k := eastKey(n.Topology(), 0, 0)
	for step := 0; step < 40; step++ {
		eng.RunUntil(eng.Now() + 171*sim.Nanosecond) // deliberately misaligned with packet boundaries
		if u := linkStatFor(t, n, k).Utilization; u < 0 || u > 1 {
			t.Fatalf("utilization %v out of [0,1] at %v", u, eng.Now())
		}
		n.ResetStats()
	}
}
