package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"gs1280/internal/cpu"
	"gs1280/internal/experiments"
	"gs1280/internal/machine"
	"gs1280/internal/network"
	"gs1280/internal/runner"
	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
	"gs1280/internal/traffic"
	"gs1280/internal/workload"
)

// workloadDef is one benchmark workload. A run repeats passes until its
// time budget is spent; every pass does the same simulated work, so every
// pass must produce the same entries.
type workloadDef struct {
	name string
	why  string
	// steps is the number of timed steps in one pass at full size.
	steps int
	// pass runs one pass of n steps with inputs derived from seed. It stops
	// early when m.expired() and tells m.endPass whether it ran all n.
	pass func(m *meter, seed uint64, n int) error
}

var workloads = []workloadDef{
	{
		name:  "suite-quick",
		why:   "all 37 experiments at -quick through runner.Run on 2 workers: the closed batch users wait for",
		steps: 137,
		pass:  func(m *meter, _ uint64, _ int) error { return suitePass(m, experiments.IDs()) },
	},
	{
		name:  "gups-64p",
		why:   "8x8 GS1280, 64 GUPS streams over all memory from empty caches: the event-densest closed loop",
		steps: 400,
		pass:  gupsSpec.pass,
	},
	{
		name:  "triad-16p",
		why:   "4x4 GS1280, local STREAM triads far above the L2: coherence and cache work, no network packets",
		steps: 400,
		pass:  triadSpec.pass,
	},
	{
		name:  "fabric-uniform",
		why:   "open-loop uniform traffic on a fresh 8x8 torus per point near the knee: network and engine only",
		steps: fabricPoints,
		pass:  func(m *meter, seed uint64, n int) error { return fabricPass(m, seed, n, false) },
	},
	{
		name:  "fabric-flaky",
		why:   "the fabric-uniform points with lossy links and a failed wrap cable: retransmission and masked routing",
		steps: fabricPoints,
		pass:  func(m *meter, seed uint64, n int) error { return fabricPass(m, seed, n, true) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix derives an independent 64-bit seed from (seed, i) with splitmix64, so
// neighbouring benchmark seeds give unrelated inputs.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// suitePass runs the experiments in ids through runner.Run, as gsbench -run
// all -quick -j 2 does. Each unit is a step, timed in its worker thread's
// CPU time; each experiment's CSV hash is an entry. The experiments seed
// themselves, so the seed does not apply.
//
// The pass cost is the makespan of the units' typical CPU times
// list-scheduled onto the two workers in the order runner.Run dispatches
// them: the suite's wall time on two otherwise idle CPUs, including the
// critical path.
func suitePass(m *meter, ids []string) error {
	// Set-up is enumerating the suite's specs and units, which runner.Run
	// repeats inside its own timing; one enumeration is too short to time
	// alone, so it is sampled many times. first maps each experiment to
	// the dispatch index of its first unit.
	var first map[string]int
	units := 0
	for i := 0; i < 21; i++ {
		m.setup("suite.enumerate", func() {
			first, units = map[string]int{}, 0
			for _, id := range ids {
				spec, _ := experiments.SpecByID(id)
				first[id] = units
				units += len(spec.Units(true))
			}
		})
	}
	// Each unit's CPU time lands in its dispatch slot, NaN if it did not
	// run; a slot is written by one worker and read after runner.Run has
	// waited for all of them.
	cpu := make([]float64, units)
	for i := range cpu {
		cpu[i] = math.NaN()
	}
	lookup := func(id string) (experiments.Spec, bool) {
		spec, ok := experiments.SpecByID(id)
		if !ok {
			return spec, false
		}
		inner := spec.Units
		spec.Units = func(q bool) []experiments.Unit {
			us := inner(q)
			for i := range us {
				run, slot := us[i].Run, first[id]+i
				us[i].Run = func(env *experiments.Env) experiments.Part {
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
					defer m.calibrateIfDue()
					// Sample at each unit boundary, while the other
					// worker's unit is still live.
					defer m.sampleHeapIfPeak()
					c0 := threadCPU()
					defer func() { cpu[slot] = (threadCPU() - c0).Seconds() }()
					return run(env)
				}
			}
			return us
		}
		return spec, true
	}

	// A pass after the first stops dispatching units at the deadline; the
	// units already running finish.
	ctx := context.Background()
	if m.complete > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, m.deadline)
		defer cancel()
	}
	m.beginPass("suite-quick")
	m.workers = 2
	var res []runner.Result
	var err error
	m.timed(func() {
		res, err = runner.Run(ctx, ids, runner.Options{
			Workers: 2,
			Quick:   true,
			Lookup:  lookup,
			OnUnit: func(u runner.UnitDone) {
				m.tr.add(u.Unit, time.Now().Add(-u.Elapsed), u.Elapsed, m.spanIdx)
			},
		})
	})
	cut := ctx.Err() != nil
	if err != nil && !cut {
		return err
	}
	var rows, work float64
	for _, r := range res {
		switch {
		case cut && r.Err == ctx.Err():
			continue // not finished by the deadline
		case r.Err != nil:
			m.record(r.ID, "error: "+r.Err.Error())
			continue
		}
		m.record(r.ID, fmt.Sprintf("%x", sha256.Sum256([]byte(r.Table.CSV()))))
		rows += float64(len(r.Table.Rows))
		n := first[r.ID]
		m.passLayer["experiments."+r.ID+".work_ms"] = 1e3 * sumOf(cpu[n:n+r.Units])
	}
	for _, c := range cpu {
		m.addStep(c, 0)
		work += c
	}
	// A suite's simulated output is its tables, so its throughput is table
	// rows per host second.
	if m.complete == 0 {
		m.passOps = rows
	}
	pass := makespan(cpu, 2)
	m.passLayer["runner.units"] = float64(units)
	m.passLayer["runner.work_s"] = work
	m.passLayer["runner.critical_path_s"] = percentile(cpu, 1)
	m.passLayer["runner.parallel_eff"] = work / (pass * 2)
	m.endPass(!cut)
	return nil
}

// makespan list-schedules jobs, in order, onto the given number of workers
// that each take the next job when free, and returns when the last ends.
func makespan(jobs []float64, workers int) float64 {
	free := make([]float64, workers)
	for _, d := range jobs {
		i := 0
		for w := range free {
			if free[w] < free[i] {
				i = w
			}
		}
		free[i] += d
	}
	end := 0.0
	for _, f := range free {
		end = math.Max(end, f)
	}
	return end
}

// machineSpec is a closed-loop GS1280 workload: every CPU runs one stream
// from empty caches, and a step advances simulated time by one slice.
type machineSpec struct {
	name    string
	w, h    int
	slice   sim.Time
	streams func(m *machine.GS1280, seed uint64) []cpu.Stream
}

var gupsSpec = machineSpec{
	name: "gups-64p", w: 8, h: 8, slice: 2 * sim.Microsecond,
	streams: func(m *machine.GS1280, seed uint64) []cpu.Stream {
		s := make([]cpu.Stream, m.N())
		for i := range s {
			s[i] = workload.NewGUPS(0, m.TotalMemory(), math.MaxInt, mix(seed, uint64(i)))
		}
		return s
	},
}

// machineBuilds is how many times a machine pass builds its machine.
const machineBuilds = 5

// triadArray is one triad array: 3 x 4 MB per CPU, far above the 1.75 MB
// L2, so every sweep streams from local memory.
const triadArray = 4 << 20

var triadSpec = machineSpec{
	name: "triad-16p", w: 4, h: 4, slice: 10 * sim.Microsecond,
	streams: func(m *machine.GS1280, seed uint64) []cpu.Stream {
		s := make([]cpu.Stream, m.N())
		for i := range s {
			// The seed places the arrays inside the CPU's own region.
			room := (m.RegionBytes() - 3*triadArray) / 4096
			off := int64(mix(seed, uint64(i))%uint64(room)) * 4096
			s[i] = workload.NewTriad(m.RegionBase(i)+off, triadArray, math.MaxInt32)
		}
		return s
	},
}

// stoppable ends a stream once *stop is set, so a machine can drain to a
// quiesced state for the invariant checks.
type stoppable struct {
	cpu.Stream
	stop *bool
}

func (s stoppable) Next() (cpu.Op, bool) {
	if *s.stop {
		return cpu.Op{}, false
	}
	return s.Stream.Next()
}

func (s machineSpec) pass(m *meter, seed uint64, n int) error {
	var mc *machine.GS1280
	stop := false
	// One build is short next to a pass, so the set-up is sampled several
	// times; the last machine built runs, and the others' garbage is
	// collected before the pass starts.
	builds := make([]float64, machineBuilds)
	for b := range builds {
		builds[b] = m.setup("machine.build", func() {
			mc = machine.NewGS1280(machine.GS1280Config{W: s.w, H: s.h})
			for i, st := range s.streams(mc, seed) {
				mc.CPUs[i].Run(stoppable{st, &stop}, nil)
			}
		})
	}
	runtime.GC()
	eng := mc.Eng
	m.beginPass(s.name)
	m.passLayer["machine.build_ms"] = 1e3 * median(builds)
	events, pendingPeak := uint64(0), 0
	i := 0
	for ; i < n && !m.expired(); i++ {
		ev0 := eng.Executed()
		m.step(fmt.Sprintf("slice %d", i), func() uint64 {
			ops0 := cpuOps(mc)
			eng.RunUntil(eng.Now() + s.slice)
			return cpuOps(mc) - ops0
		})
		events += eng.Executed() - ev0
		pendingPeak = max(pendingPeak, eng.Pending())
		m.record(fmt.Sprintf("slice-%04d", i), machineDigest(mc))
	}
	machineLayers(m.passLayer, mc, events, pendingPeak)
	m.endPass(i == n)
	if m.complete > 1 || i < n {
		// A later pass must repeat the first pass's digests, which the
		// checker verifies; its heap and invariants match the first's.
		return nil
	}
	// The machine's state only grows, so its heap peaks here.
	m.sampleHeapAfterGC()
	return m.verify(func() error {
		// Drain, then check the quiesced machine.
		stop = true
		eng.Run()
		return checkMachine(mc)
	})
}

func cpuOps(m *machine.GS1280) uint64 {
	var ops uint64
	for _, c := range m.CPUs {
		ops += c.Stats().Ops
	}
	return ops
}

// machineTotals sums the per-CPU, per-node protocol and memory-controller
// counters.
type machineTotals struct {
	cpuOps, cpuLat             uint64
	coh                        coherenceTotals
	zReads, zWrites, zPageHits uint64
	zPageMisses                uint64
	zUtil                      float64
}

type coherenceTotals struct {
	loads, stores, l1Hits, l2Hits, misses, readDirty uint64
	naks, retries, missLatSum, victims, upgrades     uint64
}

func totals(m *machine.GS1280) machineTotals {
	var t machineTotals
	for _, c := range m.CPUs {
		st := c.Stats()
		t.cpuOps += st.Ops
		t.cpuLat += uint64(st.LatencySum)
	}
	for i := 0; i < m.N(); i++ {
		st := m.Coh.Stats(topology.NodeID(i))
		t.coh.loads += st.Loads
		t.coh.stores += st.Stores
		t.coh.l1Hits += st.L1Hits
		t.coh.l2Hits += st.L2Hits
		t.coh.misses += st.Misses
		t.coh.readDirty += st.ReadDirty
		t.coh.naks += st.NAKs
		t.coh.retries += st.Retries
		t.coh.missLatSum += uint64(st.MissLatencySum)
		t.coh.victims += st.VictimsSent
		t.coh.upgrades += st.Upgrades
		for z := 0; z < 2; z++ {
			c := m.Coh.Zbox(topology.NodeID(i), z)
			t.zReads += c.Reads()
			t.zWrites += c.Writes()
			t.zPageHits += c.PageHits()
			t.zPageMisses += c.PageMisses()
			t.zUtil += c.Utilization() / float64(2*m.N())
		}
	}
	return t
}

// machineDigest hashes the simulated statistics a step leaves behind. It
// excludes host-side counts such as events executed, which a pure
// simulator speed-up may change.
func machineDigest(m *machine.GS1280) string {
	t := totals(m)
	c := t.coh
	return digest(uint64(m.Eng.Now()), t.cpuOps, t.cpuLat, m.Net.Injected(), m.Net.Delivered(),
		c.loads, c.stores, c.l1Hits, c.l2Hits, c.misses, c.readDirty, c.naks, c.retries,
		c.missLatSum, c.victims, c.upgrades, t.zReads, t.zWrites, t.zPageHits)
}

// checkMachine verifies a drained machine: directory and caches agree,
// no packet is left in the network, and every issued access completed.
func checkMachine(m *machine.GS1280) error {
	if err := m.Coh.CheckInvariants(); err != nil {
		return fmt.Errorf("coherence invariants: %v", err)
	}
	if n := m.Net.InFlight(); n != 0 {
		return fmt.Errorf("%d packets in flight after drain", n)
	}
	if n := m.Net.AdaptiveOccupancy(); n != 0 {
		return fmt.Errorf("%d adaptive credits held after drain", n)
	}
	t := totals(m)
	if t.cpuOps != t.coh.loads+t.coh.stores {
		return fmt.Errorf("CPUs completed %d ops but coherence saw %d accesses", t.cpuOps, t.coh.loads+t.coh.stores)
	}
	for _, c := range m.CPUs {
		if c.Running() || c.Outstanding() != 0 {
			return fmt.Errorf("cpu %d still running after drain", c.ID())
		}
	}
	return nil
}

func machineLayers(l map[string]float64, m *machine.GS1280, events uint64, pendingPeak int) {
	t := totals(m)
	c := t.coh
	l["sim.events"] = float64(events)
	l["sim.pending_peak"] = float64(pendingPeak)
	netLayers(l, m.Net)
	miss := m.Coh.MissLatencyHist().Quantiles()
	l["coherence.misses"] = float64(c.misses)
	l["coherence.read_dirty"] = float64(c.readDirty)
	l["coherence.naks"] = float64(c.naks)
	l["coherence.retries"] = float64(c.retries)
	l["coherence.victims"] = float64(c.victims)
	l["coherence.nak_frac"] = ratio(c.naks, c.misses)
	l["coherence.miss_lat_p50_ns"] = sim.Time(miss.P50).Nanoseconds()
	l["coherence.miss_lat_p99_ns"] = sim.Time(miss.P99).Nanoseconds()
	l["cache.l1_hits"] = float64(c.l1Hits)
	l["cache.l2_hits"] = float64(c.l2Hits)
	l["cache.hit_frac"] = ratio(c.l1Hits+c.l2Hits, c.loads+c.stores)
	l["memctrl.reads"] = float64(t.zReads)
	l["memctrl.writes"] = float64(t.zWrites)
	l["memctrl.page_hit_frac"] = ratio(t.zPageHits, t.zPageHits+t.zPageMisses)
	l["memctrl.util_avg"] = t.zUtil
	l["cpu.ops"] = float64(t.cpuOps)
	l["cpu.avg_lat_ns"] = ratio(t.cpuLat, t.cpuOps) / float64(sim.Nanosecond)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Fabric workload shape: uniform traffic at 40 packets/node/us, near the
// 8x8 torus's knee, warmed for 5 us and measured for 15 us. Shorter
// windows end while the healthy fabric's queues are still filling
// (README.md), so a pass has fewer points instead.
const (
	fabricPoints  = 30
	fabricRate    = 40.0 / 1000 // packets per node per ns
	fabricWarm    = 5 * sim.Microsecond
	fabricMeasure = 15 * sim.Microsecond
	flakyErrRate  = 0.005
)

// netCounters are the network's cumulative counters at one instant.
type netCounters struct {
	delivered, retransmits, dropped, acks, reroutes, nonMin uint64
}

func readNet(n *network.Network) netCounters {
	return netCounters{n.Delivered(), n.Retransmits(), n.DroppedHops(), n.AckOverhead(),
		n.Reroutes(), n.NonMinimalHops()}
}

// fabricPass runs n independent open-loop points. Each point rebuilds the
// topology and network on one Reset engine (the set-up) and then offers
// traffic and drains it (the step).
func fabricPass(m *meter, seed uint64, n int, flaky bool) error {
	eng := sim.NewEngine()
	name := "fabric-uniform"
	if flaky {
		name = "fabric-flaky"
	}
	m.beginPass(name)
	var acc fabricAcc
	i := 0
	for ; i < n && !m.expired(); i++ {
		var topo *topology.Topology
		var net *network.Network
		m.setup("fabric.build", func() {
			eng.Reset()
			c := processCPU()
			topo = topology.NewTorus(8, 8)
			acc.topoBuild = append(acc.topoBuild, (processCPU() - c).Seconds())
			params := network.DefaultParams()
			if flaky {
				params.LinkDropRate = flakyErrRate
				params.LinkCorruptRate = flakyErrRate
				params.LinkErrorSeed = mix(seed, uint64(i)+1<<32)
			}
			c = processCPU()
			net = network.New(eng, topo, params)
			if flaky {
				// The row-0 X wrap cable, failed before traffic starts.
				net.FailLink(topology.LinkKey{
					From: topo.Node(topology.Coord{X: 7, Y: 0}),
					To:   topo.Node(topology.Coord{X: 0, Y: 0}), Dir: topology.East})
			}
			acc.netBuild = append(acc.netBuild, (processCPU() - c).Seconds())
		})
		// A read-only probe at the window's start snapshots the cumulative
		// counters; it runs before traffic.Run's own reset at that instant.
		var atWindow netCounters
		eng.At(fabricWarm, func() { atWindow = readNet(net) })
		var res traffic.Result
		m.step(fmt.Sprintf("point %d", i), func() uint64 {
			res = traffic.Run(net, traffic.Config{
				Pattern: traffic.Uniform(),
				Rate:    fabricRate,
				Class:   network.Request,
				Size:    network.DataPacketSize,
				Seed:    mix(seed, uint64(i)),
				Warmup:  fabricWarm,
				Measure: fabricMeasure,
			})
			eng.Run()
			return net.Delivered()
		})
		if net.InFlight() != 0 || net.AdaptiveOccupancy() != 0 {
			return fmt.Errorf("point %d: %d packets in flight, %d credits held after drain",
				i, net.InFlight(), net.AdaptiveOccupancy())
		}
		if res.Delivered > res.Injected || res.Injected+res.Stalled != res.Offered {
			return fmt.Errorf("point %d: offered %d = injected %d + stalled %d, delivered %d",
				i, res.Offered, res.Injected, res.Stalled, res.Delivered)
		}
		m.record(fmt.Sprintf("point-%04d", i), digest(res.Offered, res.Stalled, res.Injected,
			res.Delivered, uint64(res.LatencySum), uint64(res.MaxLatency),
			math.Float64bits(res.AvgLinkUtil), math.Float64bits(res.MaxLinkUtil),
			uint64(res.PeakQueued), res.Reroutes, res.NonMinimalHops, res.Retransmits,
			res.DroppedHops, res.AckMsgs, res.Quarantines, uint64(res.Lat.P99),
			uint64(res.QueueRes.P99), net.Delivered(), uint64(eng.Now())))
		acc.add(net, res, atWindow, eng.Executed())
		if i == n-1 {
			m.sampleHeapAfterGC()
			runtime.KeepAlive(net)
		}
	}
	acc.layers(m.passLayer)
	m.endPass(i == n)
	return nil
}

// fabricAcc accumulates per-point network counters over a pass.
type fabricAcc struct {
	topoBuild, netBuild []float64
	events              uint64
	window              netCounters // sums of measured-window deltas
	hops, offered, inj  uint64
	util                float64
	points              int
	lat, res            stats.Histogram
}

func (a *fabricAcc) add(n *network.Network, r traffic.Result, atWindow netCounters, events uint64) {
	end := readNet(n)
	a.window.delivered += r.Delivered
	a.window.retransmits += end.retransmits - atWindow.retransmits
	a.window.dropped += end.dropped - atWindow.dropped
	a.window.acks += end.acks - atWindow.acks
	a.window.reroutes += end.reroutes - atWindow.reroutes
	a.window.nonMin += end.nonMin - atWindow.nonMin
	for _, st := range n.LinkStats() {
		a.hops += st.Packets
	}
	a.offered += r.Offered
	a.inj += r.Injected
	a.util += r.AvgLinkUtil
	a.events += events
	a.points++
	lat := n.PacketLatency()
	a.lat.Merge(&lat)
	a.res.Merge(n.ResidencyHist())
}

func (a *fabricAcc) layers(l map[string]float64) {
	l["sim.events"] = float64(a.events)
	l["topology.build_ms"] = 1e3 * median(a.topoBuild)
	l["network.build_ms"] = 1e3 * median(a.netBuild)
	w := a.window
	l["network.packets"] = float64(w.delivered)
	l["network.hops"] = float64(a.hops)
	l["network.link_util_avg"] = a.util / float64(a.points)
	l["network.pkt_lat_p99_ns"] = sim.Time(a.lat.Quantile(0.99)).Nanoseconds()
	l["network.queue_res_p99_ns"] = sim.Time(a.res.Quantile(0.99)).Nanoseconds()
	reliableLayers(l, w, a.hops)
	l["traffic.offered"] = float64(a.offered)
	l["traffic.accepted_frac"] = ratio(a.inj, a.offered)
}

// netLayers fills the network rows for a machine workload, whose network
// counters cover the whole pass.
func netLayers(l map[string]float64, n *network.Network) {
	var hops uint64
	var util float64
	links := n.LinkStats()
	for _, st := range links {
		hops += st.Packets
		util += st.Utilization / float64(len(links))
	}
	lat := n.PacketLatency()
	l["network.packets"] = float64(n.Delivered())
	l["network.hops"] = float64(hops)
	l["network.link_util_avg"] = util
	l["network.pkt_lat_p99_ns"] = sim.Time(lat.Quantile(0.99)).Nanoseconds()
	l["network.queue_res_p99_ns"] = sim.Time(n.ResidencyHist().Quantile(0.99)).Nanoseconds()
	reliableLayers(l, readNet(n), hops)
}

func reliableLayers(l map[string]float64, c netCounters, hops uint64) {
	l["network.retransmits"] = float64(c.retransmits)
	l["network.dropped_hops"] = float64(c.dropped)
	l["network.ack_msgs"] = float64(c.acks)
	l["network.reroutes"] = float64(c.reroutes)
	l["network.nonmin_hops"] = float64(c.nonMin)
	l["network.goodput_frac"] = ratio(hops, hops+c.retransmits)
}
