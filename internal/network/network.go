package network

import (
	"fmt"

	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
)

// Params sets the timing and buffering of the interconnect. DefaultParams
// returns values calibrated to the paper's GS1280 measurements (§3.4,
// Fig 13): with a 13 ns router pipeline, 7/6 ns injection/ejection and
// module/board/cable wire delays of 2/5/9.5 ns, a 1-hop read round trip
// adds 56/62/71 ns to the 83 ns local latency — the paper's 139/145/154 ns.
type Params struct {
	// RouterLatency is the pipeline delay through a router hop.
	RouterLatency sim.Time
	// InjectLatency is cache-miss-to-router insertion delay at the source.
	InjectLatency sim.Time
	// EjectLatency is router-to-destination delivery delay.
	EjectLatency sim.Time
	// WireModule/WireBoard/WireCable are per-link-class propagation delays.
	WireModule, WireBoard, WireCable sim.Time
	// LinkBandwidth is per-direction link bandwidth in bytes/second
	// (3.1 GB/s on the GS1280).
	LinkBandwidth int64
	// AdaptiveBufPackets is the adaptive-VC credit per link per class.
	AdaptiveBufPackets int
	// DisableAdaptive forces every packet onto the deterministic escape
	// path (for ablation studies of the adaptive channel).
	DisableAdaptive bool
	// Policy restricts shuffle-link use (Fig 18's 1-hop/2-hop schemes).
	Policy topology.RoutePolicy
	// CritArb enables criticality+age arbitration within each class queue
	// at the output ports: demand packets overtake control and background
	// packets of the same Class, with CritAgeLimit bounding starvation.
	// Off by default; with it off — or with every packet in one
	// criticality — arbitration is byte-identical to plain FIFO (pinned by
	// the golden differential tests).
	CritArb bool
	// CritAgeLimit promotes a packet that has waited this long at one
	// output port to demand rank, so background traffic cannot starve
	// behind a demand storm. Zero disables promotion.
	CritAgeLimit sim.Time
	// LinkDropRate and LinkCorruptRate are the per-packet-hop
	// probabilities of the seeded link error model (see reliable.go):
	// drop loses the transfer on the wire, corrupt delivers it with a
	// failed CRC; either is recovered by per-hop retransmission. Both
	// zero (the default) leaves the reliable layer uninstalled and the
	// fabric bit-identical to one without it; per-link overrides via
	// SetLinkError compose with these fabric-wide rates.
	LinkDropRate, LinkCorruptRate float64
	// LinkErrorSeed seeds the per-link error RNGs (mixed with each link's
	// identity), so error schedules are reproducible and independent of
	// traffic and of every other link.
	LinkErrorSeed uint64
	// RelWindow is the replay-ring depth of the per-hop retransmission
	// protocol (unacked packets a sender may have outstanding). Zero
	// means DefaultRelWindow.
	RelWindow int
	// RelRTO is the retransmit timeout. Zero derives a per-link default
	// from the wire delay and a full window of data-packet serialization.
	RelRTO sim.Time
	// QuarantineThreshold auto-quarantines a link (FailLink + masked
	// reroute) when at least this many of its last 64 transmissions
	// errored. Zero disables auto-quarantine.
	QuarantineThreshold int
	// QuarantineProbation, when nonzero, restores a quarantined link
	// after this long; a still-bad cable re-trips the threshold and flaps
	// back out. Zero quarantines permanently.
	QuarantineProbation sim.Time
}

// DefaultParams returns the GS1280 calibration.
func DefaultParams() Params {
	return Params{
		RouterLatency:      13 * sim.Nanosecond,
		InjectLatency:      7 * sim.Nanosecond,
		EjectLatency:       6 * sim.Nanosecond,
		WireModule:         2 * sim.Nanosecond,
		WireBoard:          5 * sim.Nanosecond,
		WireCable:          9500 * sim.Picosecond,
		LinkBandwidth:      3_100_000_000,
		AdaptiveBufPackets: 4,
		Policy:             topology.RouteAdaptive,
		// CritArb stays off; the limit is pre-set so flipping the flag
		// gets a bounded-starvation configuration without more tuning.
		CritAgeLimit: 500 * sim.Nanosecond,
	}
}

// numDirPorts sizes the per-node direction-indexed link table: the four
// torus ports plus the shuffle port.
const numDirPorts = int(topology.Shuffle) + 1

// Network is the torus interconnect of one simulated machine.
type Network struct {
	eng    *sim.Engine
	topo   *topology.Topology
	params Params
	// links[n][i] drives topo.Neighbors(n)[i].
	links [][]*link
	// dirLinks[n][d] is the link out of node n through port d (nil when
	// the node has no such port). Every topology this package wires has at
	// most one edge per (node, direction) — New verifies it — so resolving
	// a LinkKey (FailLink, RestoreLink) is one index instead of an
	// O(degree) scan.
	dirLinks [][numDirPorts]*link

	// mask is the degraded-routing view while any link is failed (nil on a
	// healthy fabric); failedKeys lists the failed directed edges in
	// fail-event order, so mask rebuilds are deterministic.
	mask       *topology.Mask
	failedKeys []topology.LinkKey

	// delivered/injected counters for sanity accounting; reroutes counts
	// packets pulled off a failed link's queues and re-pathed, and
	// nonMinimalHops counts degraded-mode hops that do not reduce the
	// healthy-fabric distance (both cumulative, see Reroutes).
	injected, delivered      uint64
	reroutes, nonMinimalHops uint64

	// latHist records end-to-end packet latency at delivery, one
	// histogram per criticality so tail analyses can separate the stall
	// path from background drain; resHist records output-port queue
	// residency when a packet wins the wire. Fixed arrays embedded by
	// value: recording is a bucket increment on the zero-alloc
	// deliver/pump paths. Reset by ResetStats with the link counters.
	latHist [numCrits]stats.Histogram
	resHist stats.Histogram

	// Reliable-link accounting (see reliable.go): retransmits counts
	// replay transmissions, droppedHops counts packet-hops destroyed on
	// the wire (dropped or corrupted), ackMsgs counts sideband ack/nack
	// control messages, quarantines counts auto-FailLink events. All
	// cumulative like reroutes — fault-audit counters a sampler deltas.
	// retryHist records, per criticality, how long recovered hops waited
	// from first transmission to acceptance (window-reset with latHist).
	retransmits, droppedHops, ackMsgs, quarantines uint64
	retryHist                                      [numCrits]stats.Histogram

	// Pooled in-flight records of the reliable layer.
	relXmitFree []*relXmit
	relAckFree  []*relAck
}

// New builds the interconnect for topo on eng.
func New(eng *sim.Engine, topo *topology.Topology, params Params) *Network {
	if params.LinkBandwidth <= 0 {
		panic("network: non-positive link bandwidth")
	}
	if params.AdaptiveBufPackets < 1 {
		panic("network: need at least one adaptive buffer")
	}
	n := &Network{eng: eng, topo: topo, params: params}
	n.links = make([][]*link, topo.N())
	n.dirLinks = make([][numDirPorts]*link, topo.N())
	for id := 0; id < topo.N(); id++ {
		edges := topo.Neighbors(topology.NodeID(id))
		row := make([]*link, len(edges))
		for i, e := range edges {
			l := &link{
				net:  n,
				from: topology.NodeID(id),
				edge: e,
				wire: n.wireLatency(e.Class),
			}
			// The pump callback is bound once into the link's timer; every
			// later wakeup rearms the same wheel node.
			l.pumpT.Init(eng, l.pump)
			row[i] = l
			// Build-time invariant behind the O(1) linkAt: one edge per
			// physical port. A topology violating it would make a LinkKey
			// ambiguous, so fail at construction, not per fault.
			if int(e.Dir) >= numDirPorts || n.dirLinks[id][e.Dir] != nil {
				panic(fmt.Sprintf("network: node %d has duplicate port %v", id, e.Dir))
			}
			n.dirLinks[id][e.Dir] = l
		}
		n.links[id] = row
	}
	if params.LinkDropRate > 0 || params.LinkCorruptRate > 0 {
		// Fabric-wide error model: every link gets the reliable layer. At
		// zero rates nothing is installed and no RNG exists, so healthy
		// runs stay bit-identical to a build without the layer.
		for id := range n.links {
			for _, l := range n.links[id] {
				n.installRel(l, params.LinkDropRate, params.LinkCorruptRate)
			}
		}
	}
	return n
}

// Engine reports the engine the network schedules on. Traffic generators
// that drive the network directly (internal/traffic) use it to share the
// simulation clock.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Topology reports the graph the network is built on.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Params reports the active configuration.
func (n *Network) Params() Params { return n.params }

func (n *Network) wireLatency(c topology.LinkClass) sim.Time {
	switch c {
	case topology.ModuleLink:
		return n.params.WireModule
	case topology.BoardLink:
		return n.params.WireBoard
	default:
		return n.params.WireCable
	}
}

func (n *Network) serTime(size int) sim.Time {
	return sim.TransferTime(size, n.params.LinkBandwidth)
}

// packetRoute, packetArrive and packetDeliver are the pre-bound phase
// callbacks shared by every packet; the packet itself is the argument, so
// binding a packet's timers allocates nothing beyond the packet.
//
//gs:noalloc guard=TestLinkPumpHotPathZeroAlloc
func packetRoute(a any) { p := a.(*Packet); p.net.route(p, p.cur) }

//gs:noalloc guard=TestLinkPumpHotPathZeroAlloc
func packetArrive(a any) { p := a.(*Packet); p.net.arrive(p, p.via) }

//gs:noalloc guard=TestLinkPumpHotPathZeroAlloc
func packetDeliver(a any) { p := a.(*Packet); p.net.deliver(p) }

// Send injects p at p.Src. Local-destination packets are delivered after
// the loopback (inject+eject) delay without touching any link, matching the
// on-chip path between the cache and the local Zboxes.
//
// Send binds the packet's route/arrive/deliver phase timers once per
// Packet lifetime; every later hop rearms the same timers (parameterized
// by p.cur and p.via), so the steady-state pump/route/arrive cycle never
// allocates. A delivered packet may be re-Sent (the coherence layer pools
// its packets): the bound timers survive reuse, so a recycled packet's
// whole flight allocates nothing. A reused packet must only ever be sent
// through the network that first carried it, and never while a previous
// flight is still in progress: Send marks the packet in flight, deliver
// clears the mark just before OnDeliver runs (so the callback may re-Send
// it), and a Send of a marked packet panics.
//
//gs:noalloc guard=TestCoherenceFastPathAllocs
func (n *Network) Send(p *Packet) {
	if p.OnDeliver == nil {
		panic("network: packet without OnDeliver")
	}
	if p.Size <= 0 {
		panic("network: packet without size")
	}
	if p.inFlight {
		panic("network: packet sent again before its previous flight was delivered")
	}
	if p.net == nil {
		p.net = n
		p.routeT.InitFunc(n.eng, packetRoute, p)
		p.arriveT.InitFunc(n.eng, packetArrive, p)
		p.deliverT.InitFunc(n.eng, packetDeliver, p)
	} else if p.net != n {
		panic("network: packet reused on a different network")
	}
	p.inFlight = true
	p.injectedAt = n.eng.Now()
	p.Hops = 0
	p.adaptiveOn = nil
	n.injected++
	if p.Src == p.Dst {
		p.deliverT.Schedule(n.params.InjectLatency + n.params.EjectLatency)
		return
	}
	// The packet pays one router pipeline per link it will traverse; the
	// source router's pipeline is charged here, intermediate ones on
	// arrival.
	p.cur = p.Src
	p.routeT.Schedule(n.params.InjectLatency + n.params.RouterLatency)
}

// route picks the output link at node cur and enqueues the packet. It is
// called after the router pipeline delay has elapsed. The candidate links
// are one next-hop set from the topology's tables: bit i is links[cur][i],
// which drives Neighbors(cur)[i]. On a degraded fabric (any link failed)
// the masked tables replace the policy tables: a fabric with holes uses
// every surviving link regardless of shuffle budget, because delivery
// outranks the firmware's chord-rationing heuristics.
func (n *Network) route(p *Packet, cur topology.NodeID) {
	var set topology.HopSet
	if n.mask != nil {
		set = n.topo.NextHopSetMasked(cur, p.Dst, n.mask)
	} else {
		set = n.topo.NextHopSetPolicy(cur, p.Dst, n.params.Policy, p.Hops)
	}
	row := n.links[cur]
	if n.params.DisableAdaptive {
		// Deterministic escape only: the dimension-ordered first hop, with
		// no adaptive credit held (the adaptive channel is switched off,
		// not merely bypassed).
		p.adaptiveOn = nil
		row[set.First()].enqueue(p)
		return
	}
	// Adaptive channel: among minimal hops with a free adaptive credit,
	// take the least congested. The scan order is deterministic, so ties
	// resolve identically run to run.
	var chosen *link
	var chosenCong sim.Time
	for s := set; s != 0; s &= s - 1 {
		l := row[s.First()]
		if !l.adaptiveFree(p.Class) {
			continue
		}
		if c := l.congestion(); chosen == nil || c < chosenCong {
			chosen, chosenCong = l, c
		}
	}
	if chosen != nil {
		chosen.adaptiveOcc[p.Class]++
		p.adaptiveOn = chosen
	} else {
		// Escape (deadlock-free) channel: deterministic dimension-ordered
		// choice — the first minimal hop in the canonical N,S,E,W order.
		chosen = row[set.First()]
		p.adaptiveOn = nil
	}
	chosen.enqueue(p)
}

// arrive runs when the packet head reaches the far end of l.
func (n *Network) arrive(p *Packet, l *link) {
	if p.adaptiveOn == l {
		l.adaptiveOcc[p.Class]--
		p.adaptiveOn = nil
	}
	p.Hops++
	if n.mask != nil && n.topo.Dist(l.edge.To, p.Dst) >= n.topo.Dist(l.from, p.Dst) {
		// A hop that spent a link without closing healthy-metric distance:
		// the price of routing around the hole.
		n.nonMinimalHops++
	}
	here := l.edge.To
	if here == p.Dst {
		p.deliverT.Schedule(n.params.EjectLatency)
		return
	}
	p.cur = here
	p.routeT.Schedule(n.params.RouterLatency)
}

// deliver completes a flight. OnDeliver runs last, after the in-flight mark
// is cleared, and nothing here keeps the packet: the callback may recycle
// or re-Send it.
func (n *Network) deliver(p *Packet) {
	n.delivered++
	n.latHist[p.Crit].Record(int64(n.eng.Now() - p.injectedAt))
	p.inFlight = false
	p.OnDeliver()
}

// Injected reports packets accepted so far.
func (n *Network) Injected() uint64 { return n.injected }

// Delivered reports packets fully delivered so far.
func (n *Network) Delivered() uint64 { return n.delivered }

// InFlight reports packets injected but not yet delivered.
func (n *Network) InFlight() uint64 { return n.injected - n.delivered }

// Reroutes reports packets pulled off a failed link's queues and re-pathed
// through the recomputed tables. Cumulative over the network's lifetime —
// fault events are rare, so samplers (perfmon) take their own deltas
// rather than having ResetStats zero a fault audit trail.
func (n *Network) Reroutes() uint64 { return n.reroutes }

// NonMinimalHops reports hops taken on a degraded fabric that did not
// reduce the healthy-fabric distance — the detour tax of routing around
// failed links. Cumulative, like Reroutes.
func (n *Network) NonMinimalHops() uint64 { return n.nonMinimalHops }

// Retransmits reports replay transmissions by the reliable-link layer —
// packet-hops sent again after a drop, corruption, nack, or timeout.
// Cumulative, like Reroutes.
func (n *Network) Retransmits() uint64 { return n.retransmits }

// DroppedHops reports packet-hops destroyed on a lossy wire (dropped or
// corrupted); each was recovered by retransmission. Cumulative.
func (n *Network) DroppedHops() uint64 { return n.droppedHops }

// AckOverhead reports sideband ack/nack control messages sent by the
// reliable-link layer. Cumulative.
func (n *Network) AckOverhead() uint64 { return n.ackMsgs }

// Quarantines reports links auto-failed by the error-rate monitor.
// Cumulative; a link that flaps through probation counts once per trip.
func (n *Network) Quarantines() uint64 { return n.quarantines }

// RetryHist reports the retry-latency histogram (picoseconds from a
// hop's first transmission to its acceptance, recorded only for hops
// that needed more than one attempt) for criticality c in the current
// stats window. Same ownership rules as LatencyHist.
func (n *Network) RetryHist(c Criticality) *stats.Histogram { return &n.retryHist[c] }

// RetryLatency merges the per-criticality retry histograms into one.
func (n *Network) RetryLatency() stats.Histogram {
	var h stats.Histogram
	for c := range n.retryHist {
		h.Merge(&n.retryHist[c])
	}
	return h
}

// LinkStat is a utilization and occupancy snapshot of one directed link.
type LinkStat struct {
	From, To    topology.NodeID
	Dir         topology.Dir
	Class       topology.LinkClass
	Utilization float64
	Packets     uint64
	Bytes       uint64
	// Queued/QueuedBytes are the output-port queue depth at snapshot time;
	// MaxQueued is the depth high-water mark since the last stats reset.
	Queued      int
	QueuedBytes int
	MaxQueued   int
}

// LinkStats reports a snapshot for every directed link, in deterministic
// (node, adjacency) order.
func (n *Network) LinkStats() []LinkStat {
	var out []LinkStat
	for id := range n.links {
		for _, l := range n.links[id] {
			out = append(out, LinkStat{
				From:        l.from,
				To:          l.edge.To,
				Dir:         l.edge.Dir,
				Class:       l.edge.Class,
				Utilization: l.utilization(),
				Packets:     l.packets,
				Bytes:       l.bytes,
				Queued:      l.queued,
				QueuedBytes: l.queuedBytes,
				MaxQueued:   l.maxQueued,
			})
		}
	}
	return out
}

// QueuedAt reports the packets queued across node id's output ports — the
// backpressure signal an injector consults to throttle an overloaded
// source.
func (n *Network) QueuedAt(id topology.NodeID) int {
	total := 0
	for _, l := range n.links[id] {
		total += l.queued
	}
	return total
}

// PeakQueued reports the deepest any single output-port queue has been
// since the last stats reset. Saturation experiments use it to verify that
// backpressure keeps steady-state occupancy — and therefore memory —
// bounded.
func (n *Network) PeakQueued() int {
	peak := 0
	for id := range n.links {
		for _, l := range n.links[id] {
			if l.maxQueued > peak {
				peak = l.maxQueued
			}
		}
	}
	return peak
}

// AdaptiveOccupancy sums the adaptive-VC credits currently held across all
// links and classes. Every acquired credit is released when its packet
// reaches the far router, so the sum must return to zero once traffic
// drains; TestAdaptiveCreditBalance pins that invariant.
func (n *Network) AdaptiveOccupancy() int {
	total := 0
	for id := range n.links {
		for _, l := range n.links[id] {
			for c := 0; c < int(numClasses); c++ {
				total += l.adaptiveOcc[c]
			}
		}
	}
	return total
}

// NodeLinkUtilization reports the mean utilization of the outgoing links of
// node id, and separately the mean of its vertical (N/S) and horizontal
// (E/W + shuffle) links — the split Fig 24 plots for GUPS.
func (n *Network) NodeLinkUtilization(id topology.NodeID) (avg, ns, ew float64) {
	var nsSum, ewSum, sum float64
	var nsCnt, ewCnt int
	for _, l := range n.links[id] {
		u := l.utilization()
		sum += u
		switch l.edge.Dir {
		case topology.North, topology.South:
			nsSum += u
			nsCnt++
		default:
			ewSum += u
			ewCnt++
		}
	}
	if len(n.links[id]) > 0 {
		avg = sum / float64(len(n.links[id]))
	}
	if nsCnt > 0 {
		ns = nsSum / float64(nsCnt)
	}
	if ewCnt > 0 {
		ew = ewSum / float64(ewCnt)
	}
	return avg, ns, ew
}

// LatencyHist reports the end-to-end latency histogram (picoseconds) of
// packets with criticality c delivered since the last stats reset. The
// returned pointer stays owned by the network; callers read or Merge from
// it, they do not Reset it.
func (n *Network) LatencyHist(c Criticality) *stats.Histogram { return &n.latHist[c] }

// PacketLatency merges the per-criticality delivery histograms into one —
// exactly the histogram of every delivery in the window, since Merge is
// concatenation.
func (n *Network) PacketLatency() stats.Histogram {
	var h stats.Histogram
	for c := range n.latHist {
		h.Merge(&n.latHist[c])
	}
	return h
}

// ResidencyHist reports the output-port queue-residency histogram
// (picoseconds from enqueue at a port to winning the wire) for the
// current stats window. Same ownership rules as LatencyHist.
func (n *Network) ResidencyHist() *stats.Histogram { return &n.resHist }

// ResetStats clears all link counters and the latency/residency
// histograms; samplers call it at interval boundaries. A packet in flight
// across the boundary is recorded once, in the window where it completes:
// a distribution sample cannot be split the way resetStats splits link
// busy time, so the whole wait lands in the completing window (see
// docs/ARCHITECTURE.md).
func (n *Network) ResetStats() {
	for id := range n.links {
		for _, l := range n.links[id] {
			l.resetStats()
		}
	}
	for c := range n.latHist {
		n.latHist[c].Reset()
		n.retryHist[c].Reset()
	}
	n.resHist.Reset()
}
