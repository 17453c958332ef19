package experiments

import (
	"fmt"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// ReadLatency measures CPU `from`'s load-to-use latency to a line homed in
// CPU `to`'s region of m, with the target's RDRAM pages warmed first (the
// paper's idle-machine methodology of Figs 12-14).
func ReadLatency(m machine.Machine, from, to int) sim.Time {
	base := m.RegionBase(to) + 1<<20 // avoid lines the warmup dirtied
	// Warm both controllers' pages at the home.
	machineRun(m, to, workload.NewPointerChase(base, 4*64, 64, 4))
	m.ResetStats()
	machineRun(m, from, workload.NewPointerChase(base+256, 4*64, 64, 4))
	return m.CPU(from).Stats().AvgLatency()
}

// dirtyLatency measures a read-dirty: `owner` writes the line, then `from`
// reads it (a 3-hop forward on the GS1280).
func dirtyLatency(m machine.Machine, from, owner, home int) sim.Time {
	addr := m.RegionBase(home) + 2<<20
	w := workload.NewGUPS(addr, 64, 1, 1) // one write to one line
	machineRun(m, owner, w)
	m.ResetStats()
	machineRun(m, from, workload.NewPointerChase(addr, 64, 64, 1))
	return m.CPU(from).Stats().AvgLatency()
}

// latencyWalk returns ReadLatency(m, 0, i) for each CPU i < n, walked in
// that order on one machine m built from r: the idle-machine latencies of
// Figs 13 and 14.
func latencyWalk(env *Env, r rig, n int) []sim.Time {
	type args struct{ n int }
	return measureRig(env, r, args{n}, func(m machine.Machine) []sim.Time {
		lat := make([]sim.Time, n)
		for i := range lat {
			lat[i] = ReadLatency(m, 0, i)
		}
		return lat
	})
}

// Fig12RemoteLatency regenerates Fig 12: latency from CPU0 to every CPU's
// memory on 16-CPU GS1280 and GS320, plus the read-dirty averages behind
// the paper's "4x clean / 6.6x dirty" claim.
func Fig12RemoteLatency(env *Env) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Local/remote latency from CPU0 on 16 CPUs (ns)",
		Header: []string{"target", "GS1280", "GS320"},
	}
	// walk measures each target's clean latency, then its read-dirty one,
	// in that order on one machine built from r. The dirty line's last
	// writer is the target CPU itself (or CPU1 for the local row).
	type args struct{}
	type target struct{ clean, dirty sim.Time }
	walk := func(r rig) [16]target {
		return measureRig(env, r, args{}, func(m machine.Machine) (lat [16]target) {
			for i := range lat {
				lat[i].clean = ReadLatency(m, 0, i)
				lat[i].dirty = dirtyLatency(m, 0, max(i, 1), i)
			}
			return lat
		})
	}
	gs, old := walk(gsRig(machine.GS1280Config{W: 4, H: 4})), walk(smpRig(machine.GS320Config(16)))
	var gsSum, oldSum, gsDirtySum, oldDirtySum float64
	for i := range gs {
		gsSum += gs[i].clean.Nanoseconds()
		oldSum += old[i].clean.Nanoseconds()
		gsDirtySum += gs[i].dirty.Nanoseconds()
		oldDirtySum += old[i].dirty.Nanoseconds()
		t.AddRow(fmt.Sprintf("0 -> %d", i), fns(gs[i].clean), fns(old[i].clean))
	}
	t.AddRow("average", f1(gsSum/16), f1(oldSum/16))
	t.AddNote("clean-read average ratio GS320/GS1280 = %.1fx (paper: 4x)", oldSum/gsSum)
	t.AddNote("read-dirty average ratio = %.1fx (paper: 6.6x)", oldDirtySum/gsDirtySum)
	return t
}

// Fig13LatencyMatrix regenerates Fig 13: the 4x4 torus latency matrix
// from node 0 (paper values: 83 local, 139-154 one hop, 175-195 two hops,
// 259 worst).
func Fig13LatencyMatrix(env *Env) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "GS1280 remote latencies (ns) from node 0 on a 4x4 torus",
		Header: []string{"row", "x=0", "x=1", "x=2", "x=3"},
	}
	// Node (x, y) is CPU y*4 + x, so row y is a consecutive slice of the
	// walk: the same walk as fig14's 16-CPU row.
	lat := latencyWalk(env, gsRig(machine.GS1280Config{W: 4, H: 4}), 16)
	for y := 0; y < 4; y++ {
		row := []string{fmt.Sprintf("y=%d", y)}
		for _, l := range lat[4*y : 4*y+4] {
			row = append(row, fns(l))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper matrix: [83 145 186 154 / 139 175 221 182 / 181 221 259 222 / 154 191 235 195]")
	return t
}

// fig14Row measures one machine size — one row of Fig 14, independently
// runnable on env's reusable engines.
func fig14Row(env *Env, n int) Part {
	avg := func(r rig) string {
		var sum float64
		for _, l := range latencyWalk(env, r, n) {
			sum += l.Nanoseconds()
		}
		return f1(sum / float64(n))
	}
	w, h := machine.StandardShape(n)
	gs, old := avg(gsRig(machine.GS1280Config{W: w, H: h})), "-"
	if n <= 32 {
		old = avg(smpRig(machine.GS320Config(n)))
	}
	return Part{Rows: [][]string{{fmt.Sprintf("%d", n), gs, old}}}
}

// fig14Spec regenerates Fig 14: average load-to-use latency from CPU0 to
// all CPUs as the machine grows, one unit per machine size.
func fig14Spec() Spec {
	return Spec{
		ID: "fig14",
		Units: func(q bool) []Unit {
			counts := []int{4, 8, 16, 32, 64} // the paper's sweep
			if q {
				counts = []int{4, 16, 64}
			}
			return sweepUnits(counts,
				func(n int) string { return fmt.Sprintf("fig14[%dP]", n) },
				fig14Row)
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := assemble(&Table{
				ID:     "fig14",
				Title:  "Average load-to-use latency (ns) vs CPUs",
				Header: []string{"CPUs", "GS1280", "GS320"},
			}, parts)
			t.AddNote("paper: GS1280 stays under ~300ns at 64P; GS320 ~650ns at 32P")
			return t
		},
	}
}

// LoadPoint is one (bandwidth, latency) sample of a load-test curve.
// Drained marks a sample whose streams ran dry before the measurement
// window closed; its numeric fields are zero and tables render "drained".
type LoadPoint struct {
	Outstanding int
	BandwidthMB float64
	LatencyNs   float64
	Drained     bool
}

// loadCells renders a LoadPoint's bandwidth and latency table cells.
func loadCells(p LoadPoint) (bw, lat string) {
	if p.Drained {
		return "drained", "drained"
	}
	return f1(p.BandwidthMB), f1(p.LatencyNs)
}

// loadTest sweeps outstanding references on a machine built from r (every
// CPU doing uniform random remote reads) and returns the Fig 15 curve.
func loadTest(env *Env, r rig, outstanding []int, warm, measure sim.Time) []LoadPoint {
	var pts []LoadPoint
	for _, k := range outstanding {
		if p, ok := loadPoint(env, r, remoteReads, k, warm, measure); ok {
			pts = append(pts, p)
		}
	}
	return pts
}

// loadTraffic is a load test's read pattern.
type loadTraffic int

const (
	remoteReads  loadTraffic = iota // every CPU reads random lines of all memory (Fig 15)
	hotSpotReads                    // every CPU but 0 reads random lines of CPU0's memory (Fig 26)
)

// loadPoint measures one load-test sample of the given traffic with k
// references outstanding per reading CPU on a fresh machine built from r.
// It reports false for a saturated sample that completed no operations,
// which the curve skips.
func loadPoint(env *Env, r rig, traffic loadTraffic, k int, warm, measure sim.Time) (LoadPoint, bool) {
	type args struct {
		traffic       loadTraffic
		k             int
		warm, measure sim.Time
	}
	type sample struct {
		p  LoadPoint
		ok bool
	}
	s := measureRig(env, r, args{traffic, k, warm, measure}, func(m machine.Machine) sample {
		run := workload.RunTimed(m, makeLoadStreams(m, traffic, k), warm, measure)
		// A CPU that runs no stream (CPU0 of a hot spot) adds zeros.
		var ops uint64
		var latSum sim.Time
		for i := 0; i < m.N(); i++ {
			st := m.CPU(i).Stats()
			ops += st.Ops
			latSum += st.LatencySum
		}
		if run.Drained && (ops == 0 || run.Interval <= 0) {
			// The streams finished inside warmup: there is nothing to
			// measure, and dividing by the (zero) interval would emit
			// Inf/NaN. Surface the drain instead.
			return sample{LoadPoint{Outstanding: k, Drained: true}, true}
		}
		if ops == 0 {
			return sample{} // saturated sample: nothing completed, skip the row
		}
		return sample{LoadPoint{
			Outstanding: k,
			BandwidthMB: float64(ops) * 64 / run.Interval.Seconds() / 1e6,
			LatencyNs:   (latSum / sim.Time(ops)).Nanoseconds(),
		}, true}
	})
	return s.p, s.ok
}

func makeLoadStreams(m machine.Machine, traffic loadTraffic, k int) []cpu.Stream {
	ss := make([]cpu.Stream, m.N())
	for i := 0; i < m.N(); i++ {
		switch {
		case traffic == remoteReads:
			m.CPU(i).SetMLP(k)
			ss[i] = workload.NewRandomRemote(i, m.N(), m.RegionBytes(), 1<<30, uint64(i*2654435761+1))
		case i > 0:
			m.CPU(i).SetMLP(k)
			ss[i] = workload.NewHotSpot(m.RegionBase(0), m.RegionBytes(), 1<<30, uint64(i*31+5))
		}
	}
	return ss
}

// fig15Config is one curve of the Fig 15 load test: its name and the
// machine each of its samples builds. The rig is held by pointer because
// enumerating the suite copies each curve into every one of its units, and
// a rig is a few hundred bytes.
type fig15Config struct {
	name string
	rig  *rig
}

// fig15Configs lists the five curves: 16/32/64-CPU GS1280 (with
// home-controller NAK/retry, which is what bends delivered bandwidth
// backward past saturation in the paper) and 16/32-CPU GS320.
func fig15Configs() []fig15Config {
	var cfgs []fig15Config
	add := func(name string, r rig) { cfgs = append(cfgs, fig15Config{name, &r}) }
	for _, n := range []int{16, 32, 64} {
		w, h := machine.StandardShape(n)
		add(fmt.Sprintf("GS1280/%dP", n), gsRig(machine.GS1280Config{W: w, H: h, NAKThreshold: 8}))
	}
	for _, n := range []int{16, 32} {
		add(fmt.Sprintf("GS320/%dP", n), smpRig(machine.GS320Config(n)))
	}
	return cfgs
}

// fig15Point measures one (curve, outstanding-references) sample — at most
// one row of Fig 15, independently runnable. A saturated sample that
// completed no operations yields an empty part, matching loadTest's
// skip-empty behaviour.
func fig15Point(env *Env, c fig15Config, k int, warm, measure sim.Time) Part {
	p, ok := loadPoint(env, *c.rig, remoteReads, k, warm, measure)
	if !ok {
		return Part{}
	}
	bw, lat := loadCells(p)
	return Part{Rows: [][]string{{c.name, fmt.Sprintf("%d", p.Outstanding), bw, lat}}}
}

// fig15Spec regenerates Fig 15: latency against delivered bandwidth under
// increasing load for 16/32/64-CPU GS1280 and 16/32-CPU GS320, one unit
// per (curve, load) sample — 40 independent simulations in the full sweep.
func fig15Spec() Spec {
	plan := func(q bool) ([]int, sim.Time, sim.Time) {
		if q {
			return []int{1, 8, 30}, quickWarm, quickMeasure
		}
		// The full sweep (the paper runs 1..30).
		return []int{1, 2, 4, 8, 12, 16, 24, 30}, 20 * sim.Microsecond, 60 * sim.Microsecond
	}
	return Spec{
		ID: "fig15",
		Units: func(q bool) []Unit {
			outstanding, warm, measure := plan(q)
			type point struct {
				c fig15Config
				k int
			}
			var points []point
			for _, c := range fig15Configs() {
				for _, k := range outstanding {
					points = append(points, point{c, k})
				}
			}
			return sweepUnits(points,
				func(p point) string { return fmt.Sprintf("fig15[%s,k=%d]", p.c.name, p.k) },
				func(env *Env, p point) Part { return fig15Point(env, p.c, p.k, warm, measure) })
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := assemble(&Table{
				ID:     "fig15",
				Title:  "Load test: latency (ns) vs delivered bandwidth (MB/s)",
				Header: []string{"config", "outstanding", "bandwidth MB/s", "latency ns"},
			}, parts)
			t.AddNote("paper: GS1280 sustains far higher bandwidth at small latency growth; GS320 latency explodes early")
			return t
		},
	}
}
