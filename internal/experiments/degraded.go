package experiments

import (
	"fmt"
	"slices"

	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// The degraded-* experiments quantify what the torus's path diversity —
// the redundant double links and swappable wrap cables behind the paper's
// §4.1 recabling argument — buys when a cable is actually out. They drive
// network.FailLink mid-run, so the whole fault pipeline is exercised:
// queued packets requeued through recomputed routes, in-flight packets
// completing their wire hop and detouring, adaptive credits released.
// With an empty failure set they reproduce the healthy baselines
// byte-identically (degraded-satur's zero-fault rows are satur-uniform's
// rows; TestDegradedHealthyRowsMatchSaturUniform pins it).

// degradedFaults returns the first level failed cables of topo in a
// deterministic order. The choices are the long cables an operator would
// actually lose: wrap/chord cables cross drawers, in-grid links are
// backplane traces.
func degradedFaults(topo *topology.Topology, level int) []topology.LinkKey {
	if level < 0 || level > 2 {
		panic(fmt.Sprintf("experiments: no degraded fault set for level %d", level))
	}
	// Built lazily so a wiring without a vertical wrap cable (a mesh, say)
	// still supports the healthy and single-fault levels.
	var faults []topology.LinkKey
	if level >= 1 {
		// The X wrap cable of row 0: (W-1, 0) -> (0, 0).
		faults = append(faults, topology.LinkKey{
			From: topo.Node(topology.Coord{X: topo.W - 1, Y: 0}),
			To:   topo.Node(topology.Coord{X: 0, Y: 0}), Dir: topology.East})
	}
	if level >= 2 {
		faults = append(faults, verticalWrapKey(topo))
	}
	return faults
}

// verticalWrapKey locates the column-0 vertical wrap cable: the South wrap
// on a torus, the Shuffle twist chord on a shuffle wiring (both are the
// CableLink out of (0, H-1) that closes the Y dimension).
func verticalWrapKey(topo *topology.Topology) topology.LinkKey {
	from := topo.Node(topology.Coord{X: 0, Y: topo.H - 1})
	for _, e := range topo.Neighbors(from) {
		if e.Class == topology.CableLink && (e.Dir == topology.South || e.Dir == topology.Shuffle) {
			return topology.LinkKey{From: from, To: e.To, Dir: e.Dir}
		}
	}
	panic("experiments: topology has no vertical wrap cable at column 0: " + topo.Name)
}

// scheduleFaults arms level fault events inside the warmup window —
// staggered at warm/4, warm/2 — so the measured window sees the
// steady-state degraded fabric while the fail/drain/requeue transient
// itself still runs under simulation.
func scheduleFaults(net *network.Network, topo *topology.Topology, level int, warm sim.Time) {
	eng := net.Engine()
	for j, k := range degradedFaults(topo, level) {
		k := k
		//lint:timer-ok setup-time one-shot fault schedule, a handful of events per run
		eng.At(eng.Now()+warm*sim.Time(j+1)/4, func() { net.FailLink(k) })
	}
}

// faultAxis is a level axis over counts of failed cables.
func faultAxis(counts ...float64) *openLevel {
	return &openLevel{key: "f", header: "failed cables", full: counts, quick: counts,
		set: func(p *openPoint, v float64) { p.faults = int(v) }}
}

// degradedSatur is satur-uniform plus a failed-cables axis (degraded-map's
// fault levels) and the fault-recovery counters.
var degradedSatur = &openFamily{
	id:       "degraded-satur",
	title:    "Degraded fabric: uniform saturation sweep on the 64P (8x8) torus with failed cables",
	variants: routings,
	level:    faultAxis(0, 1, 2),
	cols:     slices.Concat(saturCols, []openCol{colReroutes, colNonMinimal}),
	notes: []string{
		"0-fault rows reproduce satur-uniform byte-identically; faults land mid-warmup so the window sees steady degraded state",
		"each failed wrap cable lowers the knee and taxes latency with non-minimal detour hops",
	},
}

// degradedMapDistRows is the row space of the degraded latency map: one
// ring per healthy-metric hop distance from node 0 (the 8x8 torus diameter
// is 8), plus the all-destinations average.
const degradedMapMaxDist = 8

// degradedMapWirings are the map's columns: each wiring measured healthy,
// with one failed cable and with two.
var degradedMapWirings = []struct {
	name string
	mk   func() *topology.Topology
}{
	{"torus", func() *topology.Topology { return topology.NewTorus(8, 8) }},
	{"shuffle", func() *topology.Topology { return topology.NewShuffle(8, 8) }},
}

// probeLatency measures the zero-load delivery latency of one packet —
// the degraded analogue of the Fig 13 idle-machine methodology, at the
// network layer so the fabric is probed in isolation.
func probeLatency(net *network.Network, src, dst topology.NodeID) sim.Time {
	eng := net.Engine()
	start := eng.Now()
	var done sim.Time = -1
	net.Send(&network.Packet{Src: src, Dst: dst, Class: network.Request, Size: network.CtlPacketSize,
		OnDeliver: func() { done = eng.Now() }})
	eng.Run()
	if done < 0 {
		panic(fmt.Sprintf("experiments: probe %d->%d not delivered", src, dst))
	}
	return done - start
}

// degradedMapColumn measures one (wiring, faults) column of the map:
// zero-load probe latency from node 0 to every other node, averaged per
// healthy-distance ring. Probes run back to back on an idle fabric, so
// each sample is the pure degraded path latency.
func degradedMapColumn(env *Env, wiring int, level int) Part {
	defer env.scope()() // the fabric is dead once the column returns
	topo := degradedMapWirings[wiring].mk()
	params := network.DefaultParams()
	params.CritArb = env.mode().on // single-class probes: see critMode
	net := network.New(env.Engine(), topo, params)
	for _, k := range degradedFaults(topo, level) {
		net.FailLink(k)
	}
	var ringSum [degradedMapMaxDist + 1]sim.Time
	var ringCnt [degradedMapMaxDist + 1]int
	var allSum sim.Time
	for dst := 1; dst < topo.N(); dst++ {
		lat := probeLatency(net, 0, topology.NodeID(dst))
		d := topo.Dist(0, topology.NodeID(dst))
		ringSum[d] += lat
		ringCnt[d]++
		allSum += lat
	}
	rows := make([][]string, 0, degradedMapMaxDist+1)
	for d := 1; d <= degradedMapMaxDist; d++ {
		if ringCnt[d] == 0 {
			rows = append(rows, []string{"-"})
			continue
		}
		rows = append(rows, []string{f1((ringSum[d] / sim.Time(ringCnt[d])).Nanoseconds())})
	}
	rows = append(rows, []string{f1((allSum / sim.Time(topo.N()-1)).Nanoseconds())})
	return Part{Rows: rows}
}

// degradedMapSpec exposes the latency map as one unit per (wiring, faults)
// column; assembly zips the six columns into per-ring rows.
func degradedMapSpec() Spec {
	return Spec{
		ID: "degraded-map",
		Units: func(bool) []Unit {
			type col struct{ wiring, level int }
			var cols []col
			for w := range degradedMapWirings {
				// The failure sweep: a healthy fabric, one failed cable
				// (the row-0 X wrap), and two (adding the column-0
				// vertical wrap — on a shuffle wiring, the column-0
				// twist chord).
				for _, level := range []int{0, 1, 2} {
					cols = append(cols, col{w, level})
				}
			}
			return sweepUnits(cols,
				func(c col) string {
					return fmt.Sprintf("degraded-map[%s,f=%d]", degradedMapWirings[c.wiring].name, c.level)
				},
				func(env *Env, c col) Part { return degradedMapColumn(env, c.wiring, c.level) })
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := &Table{
				ID:    "degraded-map",
				Title: "Degraded fabric: zero-load latency (ns) from node 0 by hop ring, 8x8, 0/1/2 failed cables",
				Header: []string{"healthy hops", "torus", "torus-1f", "torus-2f",
					"shuffle", "shuffle-1f", "shuffle-2f"},
			}
			for r := 0; r <= degradedMapMaxDist; r++ {
				label := fmt.Sprintf("d=%d", r+1)
				if r == degradedMapMaxDist {
					label = "average"
				}
				row := []string{label}
				for _, p := range parts {
					row = append(row, p.Rows[r][0])
				}
				t.AddRow(row...)
			}
			t.AddNote("rings are healthy-metric distances; a failed cable shows up as the rings it detours, not a partition")
			t.AddNote("paper Fig 13 analogue on a degraded fabric: latencies stay finite — the §4.1 path-diversity argument, measured")
			return t
		},
	}
}
