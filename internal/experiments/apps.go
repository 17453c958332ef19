package experiments

import (
	"fmt"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/perfmon"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// appClass builds the synthetic phase mix for one of §5's application
// classes on machine m for CPU id.
type appClass struct {
	name string
	// footprint is the cache-blocked working set; compute the per-op core
	// work; streamBytes a large local array touched by streamFrac of ops;
	// remoteFrac reads module neighbors (MPI halo exchange).
	footprint  int64
	compute    sim.Time
	streamFrac float64
	stream     int64
	remoteFrac float64
	// dependentFrac of ops are dependent loads, exposing latency.
	dependentFrac float64
}

// fluentClass models §5.1: CPU-intensive CFD, blocked for cache reuse —
// low memory and IP utilization. The footprint and most of the 18 MB
// sweep array fit the previous generation's 16 MB off-chip caches but not
// the EV7's 1.75 MB L2 — the paper's explanation for ES45 keeping pace.
var fluentClass = appClass{
	name:      "Fluent",
	footprint: 2 << 20, compute: 20 * sim.Nanosecond,
	streamFrac: 0.10, stream: 18 << 20,
	remoteFrac: 0.01, dependentFrac: 0.30,
}

// spClass models §5.2: the NAS Parallel SP solver — memory-bandwidth
// bound (~26% Zbox utilization in Fig 22), little IP traffic. The sweep
// array exceeds every cache, so the old machines' shared buses saturate.
var spClass = appClass{
	name:      "NAS-SP",
	footprint: 256 << 10, compute: 8 * sim.Nanosecond,
	streamFrac: 0.50, stream: 18 << 20,
	remoteFrac: 0.03, dependentFrac: 0.05,
}

// mixStreams builds per-CPU streams of class c on m using n CPUs.
func mixStreams(m machine.Machine, n int, c appClass) []cpu.Stream {
	ss := make([]cpu.Stream, m.N())
	for i := 0; i < n; i++ {
		base := m.RegionBase(i)
		left := m.RegionBase((i + n - 1) % n)
		right := m.RegionBase((i + 1) % n)
		ss[i] = workload.NewMix(workload.Mix{
			FootprintBase: base, FootprintBytes: c.footprint,
			StreamBase: base + c.footprint, StreamBytes: c.stream, StreamFrac: c.streamFrac,
			RemoteBases: []int64{left, right}, RemoteBytes: 1 << 20, RemoteFrac: c.remoteFrac,
			Compute:       c.compute,
			DependentFrac: c.dependentFrac,
			Count:         1 << 30,
		}, uint64(i*7919+13))
	}
	return ss
}

// warmFootprints touches every footprint line once on each CPU so the
// measurement interval sees steady-state cache behaviour, not cold
// misses.
func warmFootprints(m machine.Machine, n int, c appClass) {
	for i := 0; i < n; i++ {
		lines := int(c.footprint / 64)
		m.CPU(i).Run(workload.NewPointerChase(m.RegionBase(i), c.footprint, 64, lines), nil)
	}
	m.Engine().Run()
	m.ResetStats()
}

// appRate runs class c on n CPUs of a machine built from r and reports
// aggregate operations per second.
func appRate(env *Env, r rig, n int, c appClass, warm, measure sim.Time) float64 {
	type args struct {
		n             int
		c             appClass
		warm, measure sim.Time
	}
	return measureRig(env, r, args{n, c, warm, measure}, func(m machine.Machine) float64 {
		warmFootprints(m, n, c)
		run := workload.RunTimed(m, mixStreams(m, n, c), warm, measure)
		var ops uint64
		for i := 0; i < n; i++ {
			ops += m.CPU(i).Stats().Ops
		}
		if ops == 0 || run.Interval <= 0 {
			return 0 // drained before measurement; no sustained rate to report
		}
		return float64(ops) / run.Interval.Seconds()
	})
}

// appTable builds a Fig 19/21-style scaling comparison for class c across
// CPU counts. The rating is aggregate op throughput scaled by unit.
func appTable(env *Env, id, title, unitName string, c appClass, unit float64, quick bool) *Table {
	counts, warm, measure := []int{4, 8, 16, 32}, 20*sim.Microsecond, 80*sim.Microsecond
	if quick {
		counts, warm, measure = []int{4, 16}, quickWarm, quickMeasure
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"CPUs", "GS1280 " + unitName, "SC45 " + unitName, "GS320 " + unitName},
	}
	rate := func(r rig, cpus int) float64 { return appRate(env, r, cpus, c, warm, measure) / unit }
	for _, n := range counts {
		w, h := machine.StandardShape(n)
		gsRate := rate(gsRig(machine.GS1280Config{W: w, H: h, RegionBytes: 32 << 20}), n)

		// SC45: ES45 nodes over Quadrics; halo exchanges stay in-node for
		// the four local ranks, so model one node and scale by node count
		// with a 10% MPI efficiency haircut per doubling beyond one node.
		per4 := rate(smpRig(machine.SC45Config(4)), min4(n))
		scRate := per4
		if n > 4 {
			nodes := float64(n) / 4
			eff := 1.0
			for x := nodes; x > 1; x /= 2 {
				eff *= 0.90
			}
			scRate = per4 * nodes * eff
		}

		old := "-"
		if n <= 32 {
			old = f1(rate(smpRig(machine.GS320Config(n)), n))
		}
		t.AddRow(fmt.Sprintf("%d", n), f1(gsRate), f1(scRate), old)
	}
	return t
}

func min4(n int) int {
	if n > 4 {
		return 4
	}
	return n
}

// Fig19Fluent regenerates Fig 19: Fluent rating against CPU count. The
// paper's finding: GS1280 comparable to SC45 (the application is
// CPU-bound and the 16 MB cache helps the older machines), both well
// above GS320.
func Fig19Fluent(env *Env, quick bool) *Table {
	t := appTable(env, "fig19", "Fluent (CFD, large case) rating vs CPUs", "rating",
		fluentClass, 1e6, quick)
	t.AddNote("paper: GS1280 ~ SC45 (CPU-bound; 16MB cache helps blocked CFD); both >> GS320")
	return t
}

// Fig20FluentUtil regenerates Fig 20: memory-controller and IP-link
// utilization during a Fluent run — both low.
func Fig20FluentUtil(env *Env) *Table {
	return utilTable(env, "fig20", "Fluent: memory and IP-link utilization (16P GS1280)", fluentClass,
		"paper: ~6%% memory, ~2%% IP — neither subsystem is stressed")
}

// Fig21NASSP regenerates Fig 21: NAS Parallel SP scaling, the
// memory-bandwidth-bound class where GS1280's private Zboxes dominate.
func Fig21NASSP(env *Env, quick bool) *Table {
	t := appTable(env, "fig21", "NAS Parallel SP (class C) MOPS vs CPUs", "MOPS",
		spClass, 1e6, quick)
	t.AddNote("paper: GS1280 >> SC45 > GS320, driven by memory bandwidth (Figs 6/7)")
	return t
}

// Fig22SPUtil regenerates Fig 22: utilization during SP — high memory
// (~26%%), low IP.
func Fig22SPUtil(env *Env) *Table {
	return utilTable(env, "fig22", "NAS SP: memory and IP-link utilization (16P GS1280)", spClass,
		"paper: ~26%% memory controllers, low IP links")
}

// utilTable runs class c on a 16P GS1280 with the perfmon sampler and
// tabulates the utilization time series (Figs 20/22).
func utilTable(env *Env, id, title string, c appClass, note string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"t (us)", "memory ctl %", "IP links %"},
	}
	type args struct{ c appClass }
	r := gsRig(machine.GS1280Config{W: 4, H: 4, RegionBytes: 32 << 20})
	snaps := measureRig(env, r, args{c}, func(mm machine.Machine) []perfmon.Snapshot {
		m := mm.(*machine.GS1280) // the sampler reads a GS1280's counters
		warmFootprints(m, 16, c)
		s := perfmon.NewSampler(m, 10*sim.Microsecond)
		for i, st := range mixStreams(m, 16, c) {
			if st != nil {
				m.CPU(i).Run(st, nil)
			}
		}
		s.Schedule(8)
		m.Engine().RunUntil(m.Engine().Now() + 85*sim.Microsecond)
		return s.Snapshots
	})
	for _, snap := range snaps {
		t.AddRow(f1(snap.At.Microseconds()), f1(snap.AvgZbox()*100), f1(snap.AvgLink()*100))
	}
	t.AddNote(note)
	return t
}

// fig23Row measures GUPS at one machine size on all three machines — one
// row of Fig 23, independently runnable on env's reusable engines.
func fig23Row(env *Env, n int, warm, measure sim.Time) Part {
	w, h := machine.StandardShape(n)
	gsRate := gupsRate(env, gsRig(machine.GS1280Config{W: w, H: h, RegionBytes: 16 << 20}), n, warm, measure)

	old := "-"
	if n <= 32 {
		old = f1(gupsRate(env, smpRig(machine.GS320Config(n)), n, warm, measure))
	}
	es := "-"
	if n <= 4 {
		es = f1(gupsRate(env, smpRig(machine.ES45Config()), n, warm, measure))
	}
	return Part{Rows: [][]string{{fmt.Sprintf("%d", n), f1(gsRate), old, es}}}
}

// fig23Spec regenerates Fig 23: GUPS updates/second, one unit per machine
// size. The random table spans all memory, so the experiment is bound by
// IP-link cross-section; the paper's bend at 32 CPUs appears because the
// 16P (4x4) and 32P (8x4) tori share the same bisection width.
func fig23Spec() Spec {
	plan := func(q bool) ([]int, sim.Time, sim.Time) {
		if q {
			return []int{4, 16, 32}, quickWarm, quickMeasure
		}
		return []int{4, 8, 16, 32, 64}, 20 * sim.Microsecond, 80 * sim.Microsecond // the GUPS sweep
	}
	return Spec{
		ID: "fig23",
		Units: func(q bool) []Unit {
			counts, warm, measure := plan(q)
			return sweepUnits(counts,
				func(n int) string { return fmt.Sprintf("fig23[%dP]", n) },
				func(env *Env, n int) Part { return fig23Row(env, n, warm, measure) })
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := assemble(&Table{
				ID:     "fig23",
				Title:  "GUPS (Mupdates/s) vs CPUs",
				Header: []string{"CPUs", "GS1280", "GS320", "ES45"},
			}, parts)
			t.AddNote("paper: GS1280 reaches ~1000 Mup/s at 64P with a bend at 32 (flat cross-section 16->32);")
			t.AddNote("GS320/ES45 stay an order of magnitude lower")
			return t
		},
	}
}

// gupsRate runs GUPS on n CPUs of a machine built from r, the table
// spanning all n CPUs' memory, and reports Mupdates/s.
func gupsRate(env *Env, r rig, n int, warm, measure sim.Time) float64 {
	type args struct {
		n             int
		warm, measure sim.Time
	}
	return measureRig(env, r, args{n, warm, measure}, func(m machine.Machine) float64 {
		ss := make([]cpu.Stream, m.N())
		total := int64(n) * m.RegionBytes()
		for i := 0; i < n; i++ {
			ss[i] = workload.NewGUPS(0, total, 1<<30, uint64(i*104729+7))
		}
		run := workload.RunTimed(m, ss, warm, measure)
		var ops uint64
		for i := 0; i < n; i++ {
			ops += m.CPU(i).Stats().Ops
		}
		if ops == 0 || run.Interval <= 0 {
			return 0 // drained before measurement; no sustained rate to report
		}
		return float64(ops) / run.Interval.Seconds() / 1e6
	})
}

// Fig24GUPSUtil regenerates Fig 24: per-direction link utilization during
// GUPS on the 32-CPU (8x4) machine — East/West links run hotter than
// North/South because the long dimension carries more traffic.
func Fig24GUPSUtil(env *Env) *Table {
	t := &Table{
		ID:     "fig24",
		Title:  "GUPS on 32P GS1280: memory and per-direction link utilization",
		Header: []string{"t (us)", "memory ctl %", "N/S links %", "E/W links %"},
	}
	type args struct{}
	r := gsRig(machine.GS1280Config{W: 8, H: 4, RegionBytes: 16 << 20})
	snaps := measureRig(env, r, args{}, func(mm machine.Machine) []perfmon.Snapshot {
		m := mm.(*machine.GS1280) // the sampler reads a GS1280's counters
		s := perfmon.NewSampler(m, 10*sim.Microsecond)
		total := int64(32) * m.RegionBytes()
		for i := 0; i < 32; i++ {
			m.CPU(i).Run(workload.NewGUPS(0, total, 1<<30, uint64(i*104729+7)), nil)
		}
		s.Schedule(6)
		m.Engine().RunUntil(m.Engine().Now() + 65*sim.Microsecond)
		return s.Snapshots
	})
	for _, snap := range snaps {
		t.AddRow(f1(snap.At.Microseconds()), f1(snap.AvgZbox()*100),
			f1(snap.AvgNS()*100), f1(snap.AvgEW()*100))
	}
	t.AddNote("paper: E/W utilization visibly above N/S in the 4x8 torus")
	return t
}
