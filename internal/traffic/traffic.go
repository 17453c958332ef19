// Package traffic drives the interconnect with open-loop synthetic load —
// the standard network-evaluation methodology (offered-load sweeps over
// uniform random, transpose, bit-complement, nearest-neighbor and hotspot
// permutations) that the paper's fixed workloads cannot reach.
//
// Unlike the closed-loop CPU workloads in internal/workload, where each
// core's finite MLP throttles injection to what the network returns, an
// open-loop injector offers packets at a fixed rate regardless of
// delivery. Sweeping that rate exposes the latency–throughput saturation
// curve: latency stays near the zero-load value until the busiest link
// saturates, then grows without bound while delivered throughput flattens.
// Where the knee sits — and how hard latency diverges past it — is exactly
// the adaptive-vs-deterministic routing story of the paper's §4.
//
// Each injector node is a Bernoulli or periodic process with its own
// seeded RNG, so runs are deterministic and sweep points are independent
// simulations the experiment runner can execute in any order. A per-node
// in-flight cap (the "source queue" of the classic methodology) bounds
// post-saturation state: offered load keeps counting, but injection stalls
// until deliveries free a slot, so a saturated run holds steady-state
// memory instead of accumulating unbounded queues.
package traffic

import (
	"fmt"
	"math"

	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
)

// Pattern picks the destination of each injected packet.
type Pattern interface {
	Name() string
	// Dest returns the destination for a packet injected at src, or
	// ok=false when src does not inject under this pattern (the diagonal
	// of a transpose, the center of an odd bit-complement).
	Dest(t *topology.Topology, src topology.NodeID, rng *sim.RNG) (dst topology.NodeID, ok bool)
}

type uniformPattern struct{}

func (uniformPattern) Name() string { return "uniform" }
func (uniformPattern) Dest(t *topology.Topology, src topology.NodeID, rng *sim.RNG) (topology.NodeID, bool) {
	return uniformOther(t, src, rng)
}

// uniformOther draws a uniform destination excluding src.
func uniformOther(t *topology.Topology, src topology.NodeID, rng *sim.RNG) (topology.NodeID, bool) {
	n := t.N()
	if n < 2 {
		return src, false
	}
	d := rng.Intn(n - 1)
	if d >= int(src) {
		d++
	}
	return topology.NodeID(d), true
}

type transposePattern struct{}

func (transposePattern) Name() string { return "transpose" }
func (transposePattern) Dest(t *topology.Topology, src topology.NodeID, _ *sim.RNG) (topology.NodeID, bool) {
	dst := t.Transpose(src)
	return dst, dst != src
}

type bitComplementPattern struct{}

func (bitComplementPattern) Name() string { return "bit-complement" }
func (bitComplementPattern) Dest(t *topology.Topology, src topology.NodeID, _ *sim.RNG) (topology.NodeID, bool) {
	dst := t.BitComplement(src)
	return dst, dst != src
}

type neighborPattern struct{}

func (neighborPattern) Name() string { return "neighbor" }
func (neighborPattern) Dest(t *topology.Topology, src topology.NodeID, _ *sim.RNG) (topology.NodeID, bool) {
	dst := t.NearestNeighbor(src)
	return dst, dst != src
}

type hotspotPattern struct {
	target topology.NodeID
	frac   float64
}

func (h hotspotPattern) Name() string { return fmt.Sprintf("hotspot(%d,%.0f%%)", h.target, h.frac*100) }
func (h hotspotPattern) Dest(t *topology.Topology, src topology.NodeID, rng *sim.RNG) (topology.NodeID, bool) {
	if rng.Float64() < h.frac && src != h.target {
		return h.target, true
	}
	return uniformOther(t, src, rng)
}

// Uniform is uniform random traffic: every other node equally likely.
func Uniform() Pattern { return uniformPattern{} }

// Transpose sends (x,y) to (y,x) on a square grid (see
// topology.Transpose).
func Transpose() Pattern { return transposePattern{} }

// BitComplement sends node i to N-1-i (see topology.BitComplement).
func BitComplement() Pattern { return bitComplementPattern{} }

// NearestNeighbor sends every packet one hop east (see
// topology.NearestNeighbor).
func NearestNeighbor() Pattern { return neighborPattern{} }

// Hotspot sends frac of each node's packets to target and the rest
// uniformly — the §6 hot-node pattern as open-loop load.
func Hotspot(target topology.NodeID, frac float64) Pattern {
	if frac < 0 || frac > 1 {
		panic("traffic: hotspot fraction out of [0,1]")
	}
	return hotspotPattern{target: target, frac: frac}
}

// Process selects the injection arrival process.
type Process int

const (
	// Bernoulli injects with probability rate·slot each 1 ns slot
	// (geometric inter-arrival gaps) — bursty, the standard default.
	Bernoulli Process = iota
	// Periodic injects on a fixed period with a per-node phase stagger —
	// the smoothest offered load the rate allows.
	Periodic
)

func (p Process) String() string {
	switch p {
	case Bernoulli:
		return "bernoulli"
	case Periodic:
		return "periodic"
	}
	return "Process(?)"
}

// DefaultMaxInFlight is the per-node source-queue depth when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 32

// Config parameterizes one offered-load run.
type Config struct {
	Pattern Pattern
	// Rate is the offered load in packets per node per nanosecond.
	Rate    float64
	Process Process
	// Class and Size describe the injected packets; Size defaults to
	// network.DataPacketSize.
	Class network.Class
	Size  int
	// Seed derives each node's private RNG.
	Seed uint64
	// MaxInFlight caps a node's outstanding packets (its source queue).
	// 0 means DefaultMaxInFlight; negative means unlimited (a saturated
	// unlimited run grows in-flight state without bound — use only for
	// short windows).
	MaxInFlight int
	// Warmup runs before counters start; Measure is the counted window.
	Warmup, Measure sim.Time
	// BgFrac and CtlFrac set the criticality mix: each injected packet is
	// background with probability BgFrac, control with CtlFrac, demand
	// otherwise. The draw uses a dedicated per-source RNG derived from
	// Seed, so enabling a mix never perturbs the pattern or arrival
	// streams — a zero mix is bit-identical to the pre-criticality
	// injector (the golden differential tests rely on this).
	BgFrac, CtlFrac float64
}

// Result aggregates one run's measurement window.
type Result struct {
	Nodes int
	Size  int
	// Offered counts injection attempts in the window; Stalled counts the
	// attempts suppressed by the in-flight cap; Injected = Offered -
	// Stalled entered the network. Delivered (and the latency fields)
	// cover packets injected in-window and delivered before it closed.
	Offered, Stalled, Injected uint64
	Delivered                  uint64
	LatencySum                 sim.Time
	MaxLatency                 sim.Time
	// AvgLinkUtil/MaxLinkUtil summarize directed-link utilization over the
	// window; PeakQueued is the deepest output-port queue seen.
	AvgLinkUtil, MaxLinkUtil float64
	PeakQueued               int
	Measure                  sim.Time
	// Reroutes/NonMinimalHops are the network's cumulative fault-recovery
	// counters at the end of the run — zero on a healthy fabric (see
	// network.Network.Reroutes).
	Reroutes, NonMinimalHops uint64
	// Retransmits/DroppedHops/AckMsgs/Quarantines are the reliable-link
	// layer's cumulative counters at the end of the run — all zero on a
	// fabric without injected errors (see network.Network.Retransmits).
	Retransmits, DroppedHops, AckMsgs, Quarantines uint64
	// Lat is the tail summary of every packet delivered inside the
	// measured window (the network's histogram, so it also counts
	// warmup-injected packets that complete in-window); DemandLat and
	// BgLat split it by criticality — the pair the tail-* experiments
	// compare across prioritization settings. QueueRes summarizes router
	// output-port queue residency over the same window. RetryLat
	// summarizes, for hops that needed retransmission inside the window,
	// the wait from first transmission to acceptance — the latency cost
	// of recovering from wire errors.
	Lat, DemandLat, BgLat stats.Quantiles
	QueueRes              stats.Quantiles
	RetryLat              stats.Quantiles
}

// AvgLatencyNs reports mean delivered latency in nanoseconds.
func (r Result) AvgLatencyNs() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return (r.LatencySum / sim.Time(r.Delivered)).Nanoseconds()
}

// OfferedRate reports attempted load in packets per node per nanosecond.
func (r Result) OfferedRate() float64 {
	return rate(r.Offered, r.Nodes, r.Measure)
}

// DeliveredRate reports delivered throughput in packets per node per
// nanosecond.
func (r Result) DeliveredRate() float64 {
	return rate(r.Delivered, r.Nodes, r.Measure)
}

// DeliveredMBs reports delivered throughput in MB/s across the machine.
func (r Result) DeliveredMBs() float64 {
	if r.Measure <= 0 {
		return 0
	}
	return float64(r.Delivered) * float64(r.Size) / r.Measure.Seconds() / 1e6
}

// AcceptedFrac reports the fraction of offered packets the source queues
// accepted — below 1.0 the network is saturated.
func (r Result) AcceptedFrac() float64 {
	if r.Offered == 0 {
		return 1
	}
	return float64(r.Injected) / float64(r.Offered)
}

func rate(count uint64, nodes int, window sim.Time) float64 {
	if nodes == 0 || window <= 0 {
		return 0
	}
	return float64(count) / float64(nodes) / window.Nanoseconds()
}

// run is the mutable state shared by one Run's sources.
type run struct {
	net          *network.Network
	eng          *sim.Engine
	topo         *topology.Topology
	cfg          Config
	maxInFlight  int
	measureStart sim.Time
	end          sim.Time
	res          Result
	// free holds delivered packet records for any source to reuse. It
	// grows to the run's peak in-flight count and dies with the run.
	free []*packetRec
}

// source is one node's injection process. stepT is the recurring injection
// timer: the same wheel node is rearmed for every attempt, and simply not
// rearmed once the injection window closes.
type source struct {
	r        *run
	node     topology.NodeID
	rng      *sim.RNG
	critRNG  *sim.RNG
	inFlight int
	stepT    sim.Timer
}

// packetRec is one pooled open-loop packet: the network packet plus the
// sender and send time its delivery callback settles. OnDeliver is bound
// once, when the record is made, so a recycled packet's whole flight
// allocates nothing. Reuse is safe because the network reads nothing of a
// packet once it calls OnDeliver (a lossy link's late duplicate of an
// accepted hop touches only its replay ring), and Send panics on a packet
// whose previous flight has not been delivered.
type packetRec struct {
	network.Packet
	src    *source
	sentAt sim.Time
}

// Run offers cfg.Rate load to net until warmup+measure elapses and returns
// the window's measurements. The network's engine is driven in place;
// callers hand Run a freshly built engine/network pair per sweep point so
// points stay independent.
func Run(net *network.Network, cfg Config) Result {
	if cfg.Pattern == nil {
		panic("traffic: config without pattern")
	}
	if cfg.Rate <= 0 {
		panic("traffic: non-positive injection rate")
	}
	if cfg.Measure <= 0 {
		panic("traffic: non-positive measure window")
	}
	if cfg.Size == 0 {
		cfg.Size = network.DataPacketSize
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	eng := net.Engine()
	topo := net.Topology()
	begin := eng.Now()
	r := &run{
		net: net, eng: eng, topo: topo, cfg: cfg,
		maxInFlight:  maxInFlight,
		measureStart: begin + cfg.Warmup,
		end:          begin + cfg.Warmup + cfg.Measure,
		res:          Result{Nodes: topo.N(), Size: cfg.Size, Measure: cfg.Measure},
	}
	for id := 0; id < topo.N(); id++ {
		s := &source{
			r:    r,
			node: topology.NodeID(id),
			rng:  sim.NewRNG(cfg.Seed*0x9e3779b9 + uint64(id)*0x100000001b3 + 1),
			// Distinct mixing constants keep the criticality stream
			// independent of the pattern/arrival stream: a zero mix never
			// draws from it, so it cannot perturb existing runs.
			critRNG: sim.NewRNG(cfg.Seed*0x9e3779b97f4a7c15 + uint64(id)*0xff51afd7ed558ccd + 2),
		}
		s.stepT.Init(eng, s.step)
		s.stepT.ScheduleAt(s.firstAt(begin))
	}
	// Utilization and queue watermarks cover only the measured window.
	//lint:timer-ok one-shot setup event per run, not per packet
	eng.At(r.measureStart, net.ResetStats)
	eng.RunUntil(r.end)
	var sum float64
	stats := net.LinkStats()
	for _, st := range stats {
		sum += st.Utilization
		if st.Utilization > r.res.MaxLinkUtil {
			r.res.MaxLinkUtil = st.Utilization
		}
	}
	if len(stats) > 0 {
		r.res.AvgLinkUtil = sum / float64(len(stats))
	}
	r.res.PeakQueued = net.PeakQueued()
	r.res.Reroutes = net.Reroutes()
	r.res.NonMinimalHops = net.NonMinimalHops()
	r.res.Retransmits = net.Retransmits()
	r.res.DroppedHops = net.DroppedHops()
	r.res.AckMsgs = net.AckOverhead()
	r.res.Quarantines = net.Quarantines()
	// The histograms were reset with the rest of the stats at measureStart,
	// so they cover exactly the measured window.
	all := net.PacketLatency()
	r.res.Lat = all.Quantiles()
	r.res.DemandLat = net.LatencyHist(network.CritDemand).Quantiles()
	r.res.BgLat = net.LatencyHist(network.CritBackground).Quantiles()
	r.res.QueueRes = net.ResidencyHist().Quantiles()
	retry := net.RetryLatency()
	r.res.RetryLat = retry.Quantiles()
	return r.res
}

// firstAt places the source's first injection attempt.
func (s *source) firstAt(begin sim.Time) sim.Time {
	if s.r.cfg.Process == Periodic {
		// Stagger phases across nodes so the offered load is smooth
		// machine-wide, not a lockstep pulse.
		period := s.period()
		return begin + period*sim.Time(int64(s.node))/sim.Time(int64(s.r.topo.N()))
	}
	return begin + s.gap()
}

// period is the fixed inter-injection time of the periodic process.
func (s *source) period() sim.Time {
	p := sim.Time(math.Round(float64(sim.Nanosecond) / s.r.cfg.Rate))
	if p < 1 {
		p = 1
	}
	return p
}

// gap samples the next inter-attempt time.
func (s *source) gap() sim.Time {
	if s.r.cfg.Process == Periodic {
		return s.period()
	}
	// Geometric number of 1 ns Bernoulli slots until the next success.
	p := s.r.cfg.Rate
	if p >= 1 {
		return sim.Nanosecond
	}
	u := s.rng.Float64()
	slots := 1 + int64(math.Log(1-u)/math.Log(1-p))
	if slots < 1 {
		slots = 1
	}
	return sim.Time(slots) * sim.Nanosecond
}

// step is the source's recurring injection event.
//
//gs:noalloc guard=TestOpenLoopInjectionZeroAlloc
func (s *source) step() {
	now := s.r.eng.Now()
	if now >= s.r.end {
		return // injection window closed; do not re-arm
	}
	s.attempt(now)
	s.stepT.Schedule(s.gap())
}

// attempt offers one packet, honoring the in-flight cap. A recycled record
// carries its last flight's fields, so every field a flight reads is set
// here; Send resets the network's own.
//
//gs:noalloc guard=TestOpenLoopInjectionZeroAlloc
func (s *source) attempt(now sim.Time) {
	dst, ok := s.r.cfg.Pattern.Dest(s.r.topo, s.node, s.rng)
	if !ok {
		return // src does not participate in this pattern
	}
	measured := now >= s.r.measureStart
	if measured {
		s.r.res.Offered++
	}
	if s.r.maxInFlight > 0 && s.inFlight >= s.r.maxInFlight {
		if measured {
			s.r.res.Stalled++
		}
		return
	}
	if measured {
		s.r.res.Injected++
	}
	s.inFlight++
	rec := s.get()
	rec.sentAt = now
	p := &rec.Packet
	p.Src, p.Dst, p.Class, p.Size, p.Crit = s.node, dst, s.r.cfg.Class, s.r.cfg.Size, network.CritDemand
	if s.r.cfg.BgFrac > 0 || s.r.cfg.CtlFrac > 0 {
		switch u := s.critRNG.Float64(); {
		case u < s.r.cfg.BgFrac:
			p.Crit = network.CritBackground
		case u < s.r.cfg.BgFrac+s.r.cfg.CtlFrac:
			p.Crit = network.CritControl
		}
	}
	s.r.net.Send(p)
}

// get takes a record off the run's free list for s, making one only when
// the list is empty.
func (s *source) get() *packetRec {
	r := s.r
	if n := len(r.free); n > 0 {
		rec := r.free[n-1]
		r.free = r.free[:n-1]
		rec.src = s
		return rec
	}
	rec := &packetRec{src: s}     //lint:alloc-ok pool growth to the run's peak in-flight depth
	rec.OnDeliver = rec.delivered //lint:alloc-ok bound once per record, reused for every flight
	return rec
}

// delivered is every pooled packet's OnDeliver: it settles the window's
// counters and, as its last action, returns the record to the run's free
// list.
//
//gs:noalloc guard=TestOpenLoopInjectionZeroAlloc
func (rec *packetRec) delivered() {
	s := rec.src
	s.inFlight--
	if rec.sentAt >= s.r.measureStart {
		lat := s.r.eng.Now() - rec.sentAt
		s.r.res.Delivered++
		s.r.res.LatencySum += lat
		if lat > s.r.res.MaxLatency {
			s.r.res.MaxLatency = lat
		}
	}
	s.r.free = append(s.r.free, rec)
}
