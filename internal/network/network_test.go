package network

import (
	"testing"
	"testing/quick"

	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

func testNet(w, h int) (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	topo := topology.NewTorus(w, h)
	return eng, New(eng, topo, DefaultParams())
}

// send delivers one packet and returns the one-way latency.
func oneWay(t *testing.T, eng *sim.Engine, n *Network, src, dst topology.NodeID, class Class, size int) sim.Time {
	t.Helper()
	var done sim.Time = -1
	n.Send(&Packet{Src: src, Dst: dst, Class: class, Size: size,
		OnDeliver: func() { done = eng.Now() }})
	start := eng.Now()
	eng.Run()
	if done < 0 {
		t.Fatalf("packet %d->%d not delivered", src, dst)
	}
	return done - start
}

func TestLocalLoopbackLatency(t *testing.T) {
	eng, n := testNet(4, 4)
	lat := oneWay(t, eng, n, 0, 0, Request, CtlPacketSize)
	want := DefaultParams().InjectLatency + DefaultParams().EjectLatency
	if lat != want {
		t.Fatalf("loopback latency = %v, want %v", lat, want)
	}
}

func TestOneHopLatencyByLinkClass(t *testing.T) {
	eng, n := testNet(4, 4)
	p := DefaultParams()
	fixed := p.InjectLatency + p.RouterLatency + p.EjectLatency
	// Module partner: (0,0)->(0,1) is node 0 -> node 4.
	if lat := oneWay(t, eng, n, 0, 4, Request, CtlPacketSize); lat != fixed+p.WireModule {
		t.Errorf("module hop = %v, want %v", lat, fixed+p.WireModule)
	}
	// Board neighbor: (0,0)->(1,0).
	eng, n = testNet(4, 4)
	if lat := oneWay(t, eng, n, 0, 1, Request, CtlPacketSize); lat != fixed+p.WireBoard {
		t.Errorf("board hop = %v, want %v", lat, fixed+p.WireBoard)
	}
	// Cable wrap: (0,0)->(3,0).
	eng, n = testNet(4, 4)
	if lat := oneWay(t, eng, n, 0, 3, Request, CtlPacketSize); lat != fixed+p.WireCable {
		t.Errorf("cable hop = %v, want %v", lat, fixed+p.WireCable)
	}
}

func TestMultiHopLatencyAccumulates(t *testing.T) {
	eng, n := testNet(4, 4)
	p := DefaultParams()
	// (0,0)->(2,2) is 4 hops; cheapest path uses the module link plus
	// three board links (S module, S board, E board, E board).
	lat := oneWay(t, eng, n, n.Topology().Node(topology.Coord{X: 0, Y: 0}),
		n.Topology().Node(topology.Coord{X: 2, Y: 2}), Request, CtlPacketSize)
	min := p.InjectLatency + 4*p.RouterLatency + p.WireModule + 3*p.WireBoard + p.EjectLatency
	max := p.InjectLatency + 4*p.RouterLatency + 4*p.WireCable + p.EjectLatency
	if lat < min || lat > max {
		t.Fatalf("4-hop latency = %v, want in [%v, %v]", lat, min, max)
	}
}

func TestPacketsArriveExactlyOnce(t *testing.T) {
	eng, n := testNet(4, 4)
	delivered := make(map[int]int)
	const count = 200
	rng := sim.NewRNG(7)
	for i := 0; i < count; i++ {
		i := i
		src := topology.NodeID(rng.Intn(16))
		dst := topology.NodeID(rng.Intn(16))
		n.Send(&Packet{Src: src, Dst: dst, Class: Request, Size: CtlPacketSize,
			OnDeliver: func() { delivered[i]++ }})
	}
	eng.Run()
	if len(delivered) != count {
		t.Fatalf("delivered %d distinct packets, want %d", len(delivered), count)
	}
	for i, c := range delivered {
		if c != 1 {
			t.Fatalf("packet %d delivered %d times", i, c)
		}
	}
	if n.Injected() != count || n.Delivered() != count || n.InFlight() != 0 {
		t.Fatalf("counters: injected %d delivered %d inflight %d",
			n.Injected(), n.Delivered(), n.InFlight())
	}
}

func TestLinkSerializationLimitsBandwidth(t *testing.T) {
	// Blast packets across a single link; total time must respect the
	// 3.1 GB/s serialization limit.
	eng, n := testNet(4, 4)
	const count = 1000
	var last sim.Time
	for i := 0; i < count; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: Response, Size: DataPacketSize,
			OnDeliver: func() { last = eng.Now() }})
	}
	eng.Run()
	// The final delivery happens at head arrival (cut-through), so the
	// bound is (count-1) serializations.
	wire := (count - 1) * int(sim.TransferTime(DataPacketSize, DefaultParams().LinkBandwidth))
	if last < sim.Time(wire) {
		t.Fatalf("finished at %v, faster than serialization bound %v", last, sim.Time(wire))
	}
	// And not pathologically slower (same order of magnitude).
	if last > sim.Time(3*wire) {
		t.Fatalf("finished at %v, way beyond serialization bound %v", last, sim.Time(wire))
	}
}

func TestResponsePriorityOverRequests(t *testing.T) {
	// Saturate a link with Requests, then send one Response; the Response
	// must overtake the queued Requests.
	eng, n := testNet(4, 4)
	var respAt, lastReqAt sim.Time
	for i := 0; i < 100; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: Request, Size: CtlPacketSize,
			OnDeliver: func() { lastReqAt = eng.Now() }})
	}
	n.Send(&Packet{Src: 0, Dst: 1, Class: Response, Size: CtlPacketSize,
		OnDeliver: func() { respAt = eng.Now() }})
	eng.Run()
	if respAt >= lastReqAt {
		t.Fatalf("response at %v did not overtake requests ending %v", respAt, lastReqAt)
	}
}

func TestAdaptiveRoutingSpreadsLoad(t *testing.T) {
	// Send a burst from (0,0) to (1,1) (two minimal first hops). With
	// adaptive routing both the East and South links out of node 0 must
	// carry traffic.
	eng, n := testNet(4, 4)
	topo := n.Topology()
	src := topo.Node(topology.Coord{X: 0, Y: 0})
	dst := topo.Node(topology.Coord{X: 1, Y: 1})
	for i := 0; i < 200; i++ {
		n.Send(&Packet{Src: src, Dst: dst, Class: Request, Size: DataPacketSize, OnDeliver: func() {}})
	}
	eng.Run()
	east, south := uint64(0), uint64(0)
	for _, st := range n.LinkStats() {
		if st.From != src {
			continue
		}
		switch st.Dir {
		case topology.East:
			east += st.Packets
		case topology.South:
			south += st.Packets
		}
	}
	if east == 0 || south == 0 {
		t.Fatalf("adaptive routing did not spread: east=%d south=%d", east, south)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng, n := testNet(8, 4)
		rng := sim.NewRNG(99)
		var lastAt sim.Time
		for i := 0; i < 500; i++ {
			n.Send(&Packet{
				Src: topology.NodeID(rng.Intn(32)), Dst: topology.NodeID(rng.Intn(32)),
				Class: Class(rng.Intn(3)), Size: CtlPacketSize,
				OnDeliver: func() { lastAt = eng.Now() }})
		}
		eng.Run()
		return lastAt, eng.Executed()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	eng, n := testNet(4, 4)
	n.Send(&Packet{Src: 0, Dst: 1, Class: Response, Size: DataPacketSize, OnDeliver: func() {}})
	eng.Run()
	var total uint64
	for _, st := range n.LinkStats() {
		total += st.Bytes
	}
	if total != DataPacketSize {
		t.Fatalf("link bytes = %d, want %d", total, DataPacketSize)
	}
	n.ResetStats()
	for _, st := range n.LinkStats() {
		if st.Bytes != 0 || st.Packets != 0 {
			t.Fatal("reset did not clear stats")
		}
	}
}

func TestNodeLinkUtilizationSplit(t *testing.T) {
	// Drive only horizontal traffic through node (1,0); E/W utilization
	// must exceed N/S.
	eng, n := testNet(4, 4)
	topo := n.Topology()
	src := topo.Node(topology.Coord{X: 0, Y: 0})
	dst := topo.Node(topology.Coord{X: 2, Y: 0})
	for i := 0; i < 100; i++ {
		n.Send(&Packet{Src: src, Dst: dst, Class: Request, Size: DataPacketSize, OnDeliver: func() {}})
	}
	eng.Run()
	_, ns, ew := n.NodeLinkUtilization(topo.Node(topology.Coord{X: 1, Y: 0}))
	if ew <= ns {
		t.Fatalf("E/W util %v not above N/S %v for horizontal traffic", ew, ns)
	}
}

func TestShufflePolicyRespectedInFlight(t *testing.T) {
	// On a shuffle topology with the 1-hop policy, a packet from a
	// non-chord node must not use shuffle links after its first hop;
	// delivery still succeeds and hop count matches the policy distance.
	eng := sim.NewEngine()
	topo := topology.NewShuffle(8, 2)
	params := DefaultParams()
	params.Policy = topology.RouteShuffle1Hop
	n := New(eng, topo, params)
	src := topo.Node(topology.Coord{X: 0, Y: 0})
	dst := topo.Node(topology.Coord{X: 4, Y: 1})
	var hops int
	p := &Packet{Src: src, Dst: dst, Class: Request, Size: CtlPacketSize}
	p.OnDeliver = func() { hops = p.Hops }
	n.Send(p)
	eng.Run()
	if want := topo.DistPolicy(src, dst, topology.RouteShuffle1Hop, 0); hops != want {
		t.Fatalf("hops = %d, want %d", hops, want)
	}
}

func TestSendValidation(t *testing.T) {
	eng, n := testNet(4, 4)
	_ = eng
	for _, p := range []*Packet{
		{Src: 0, Dst: 1, Class: Request, Size: CtlPacketSize},  // no OnDeliver
		{Src: 0, Dst: 1, Class: Request, OnDeliver: func() {}}, // no size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid packet %+v did not panic", p)
				}
			}()
			n.Send(p)
		}()
	}
}

// TestSendRejectsPacketInFlight pins Send's reuse rule: a packet waiting
// in an output queue is still in flight, and sending it again panics
// instead of delivering it twice.
func TestSendRejectsPacketInFlight(t *testing.T) {
	eng, n := testNet(4, 1)
	// A 1 MB packet holds node 0's east wire for ~340 µs, so the next
	// packet to node 1 waits in the queue behind it.
	n.Send(&Packet{Src: 0, Dst: 1, Class: Request, Size: 1 << 20, OnDeliver: func() {}})
	p := &Packet{Src: 0, Dst: 1, Class: Request, Size: CtlPacketSize, OnDeliver: func() {}}
	n.Send(p)
	eng.RunUntil(100 * sim.Nanosecond)
	if q := n.QueuedAt(0); q != 1 {
		t.Fatalf("node 0 queues %d packets, want the second one waiting", q)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-sending a queued packet did not panic")
		}
	}()
	n.Send(p)
}

// TestResendFromOnDeliver is the other half of the rule: deliver clears
// the in-flight mark before OnDeliver runs, so a callback may send the
// same packet again.
func TestResendFromOnDeliver(t *testing.T) {
	eng, n := testNet(4, 1)
	p := &Packet{Src: 0, Dst: 2, Class: Request, Size: CtlPacketSize}
	flights := 0
	p.OnDeliver = func() {
		flights++
		if flights < 3 {
			p.Src, p.Dst = p.Dst, p.Src
			n.Send(p)
		}
	}
	n.Send(p)
	eng.Run()
	if flights != 3 || n.Delivered() != 3 || n.InFlight() != 0 {
		t.Fatalf("flights %d, delivered %d, in flight %d; want 3, 3, 0", flights, n.Delivered(), n.InFlight())
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	// The same packet takes longer when the path is loaded — the essence
	// of the Fig 15 load test.
	idle := func() sim.Time {
		eng, n := testNet(4, 4)
		return oneWay(t, eng, n, 0, 2, Response, DataPacketSize)
	}()
	loaded := func() sim.Time {
		eng, n := testNet(4, 4)
		for i := 0; i < 500; i++ {
			n.Send(&Packet{Src: 0, Dst: 2, Class: Response, Size: DataPacketSize, OnDeliver: func() {}})
		}
		var done sim.Time
		n.Send(&Packet{Src: 0, Dst: 2, Class: Response, Size: DataPacketSize,
			OnDeliver: func() { done = eng.Now() }})
		eng.Run()
		return done
	}()
	if loaded <= idle {
		t.Fatalf("loaded latency %v not above idle %v", loaded, idle)
	}
}

func BenchmarkNetworkRandomTraffic(b *testing.B) {
	eng, n := testNet(8, 8)
	rng := sim.NewRNG(1)
	for i := 0; i < b.N; i++ {
		n.Send(&Packet{
			Src: topology.NodeID(rng.Intn(64)), Dst: topology.NodeID(rng.Intn(64)),
			Class: Request, Size: CtlPacketSize, OnDeliver: func() {}})
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// Property: for any random traffic pattern, every injected packet is
// delivered exactly once and link byte counters account exactly for the
// bytes sent across links (packets between distinct nodes traverse at
// least one link each).
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		eng := sim.NewEngine()
		topo := topology.NewTorus(4, 4)
		n := New(eng, topo, DefaultParams())
		rng := sim.NewRNG(seed)
		sent := 0
		remote := 0
		for i := 0; i < int(count); i++ {
			src := topology.NodeID(rng.Intn(16))
			dst := topology.NodeID(rng.Intn(16))
			if src != dst {
				remote++
			}
			sent++
			n.Send(&Packet{Src: src, Dst: dst, Class: Request, Size: CtlPacketSize,
				OnDeliver: func() {}})
		}
		eng.Run()
		if n.Delivered() != uint64(sent) || n.InFlight() != 0 {
			return false
		}
		var hops uint64
		for _, st := range n.LinkStats() {
			if st.Bytes%CtlPacketSize != 0 {
				return false
			}
			hops += st.Packets
		}
		return hops >= uint64(remote) // every remote packet crossed >= 1 link
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
