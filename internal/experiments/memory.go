package experiments

import (
	"fmt"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// fig04Row measures one dataset size on the three machines — one row of
// Fig 4, independently runnable: each measurement builds a fresh machine
// on env's reusable engines.
func fig04Row(env *Env, size int64) Part {
	const measureOps = 60000
	chase := func(r rig) string { return fns(chaseLatency(env, r, size, 64, measureOps)) }
	return Part{Rows: [][]string{{byteSize(size),
		chase(gsRig(machine.GS1280Config{W: 2, H: 1})),
		chase(smpRig(machine.ES45Config())),
		chase(smpRig(machine.GS320Config(4)))}}}
}

// fig04Spec regenerates Fig 4: dependent-load latency against dataset
// size on the three machines, one unit per size. The GS1280 curve steps at
// 64 KB (L1), 1.75 MB (L2) and then memory at ~83 ns; the previous
// generation steps at 64 KB and 16 MB, with its off-chip cache slower than
// GS1280's on-chip L2 but its 16 MB capacity winning between 1.75 and
// 16 MB.
func fig04Spec() Spec {
	return Spec{
		ID: "fig4",
		Units: func(q bool) []Unit {
			// The paper's dataset-size sweep, 4 KB to 64 MB: the paper
			// continues to 128 MB, but the curves are flat past 64 MB.
			sizes := []int64{
				4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
				512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20,
			}
			if q {
				sizes = []int64{16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 32 << 20}
			}
			return sweepUnits(sizes,
				func(size int64) string { return fmt.Sprintf("fig4[%s]", byteSize(size)) },
				fig04Row)
		},
		Assemble: func(_ bool, parts []Part) *Table {
			t := assemble(&Table{
				ID:     "fig4",
				Title:  "Dependent load latency (ns) vs dataset size",
				Header: []string{"dataset", "GS1280/1.15GHz", "ES45/1.25GHz", "GS320/1.22GHz"},
			}, parts)
			t.AddNote("paper: GS1280 3.8x lower latency at 32MB; slower only between 1.75MB and 16MB")
			return t
		},
	}
}

// Fig05StrideSweep regenerates Fig 5: GS1280 dependent-load latency as
// both dataset size and stride grow. Large strides defeat the RDRAM
// open-page hits, raising memory latency from ~83 ns toward ~130 ns. The
// quick plan is a 3x3 corner of the surface: L1, L2 and memory sizes at
// an open-page, a mid and a closed-page stride.
func Fig05StrideSweep(env *Env, quick bool) *Table {
	// The full plan spans the Fig 5 surface.
	sizes := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	strides := []int64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10}
	if quick {
		sizes, strides = []int64{64 << 10, 1 << 20, 4 << 20}, []int64{64, 1 << 10, 16 << 10}
	}
	t := &Table{
		ID:    "fig5",
		Title: "GS1280 dependent load latency (ns) vs dataset size and stride",
		Header: append([]string{"dataset"}, func() []string {
			var h []string
			for _, s := range strides {
				h = append(h, "s="+byteSize(s))
			}
			return h
		}()...),
	}
	const measureOps = 60000
	for _, size := range sizes {
		row := []string{byteSize(size)}
		for _, stride := range strides {
			if stride > size {
				row = append(row, "-")
				continue
			}
			row = append(row, fns(chaseLatency(env, gsRig(machine.GS1280Config{W: 2, H: 1}), size, stride, measureOps)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: ~80ns open-page rising to ~130ns closed-page at large strides")
	return t
}

// triadBandwidth runs the STREAM triad on n CPUs of a machine built from
// r and reports delivered GB/s (bytes of a/b/c traffic per second,
// McCalpin counting). A warm pass first fills each CPU's cache to steady
// state so the measured interval includes the dirty-eviction writeback
// traffic a real STREAM run sustains.
func triadBandwidth(env *Env, r rig, n int, arrayBytes int64, warm, measure sim.Time) float64 {
	type args struct {
		n             int
		arrayBytes    int64
		warm, measure sim.Time
	}
	return measureRig(env, r, args{n, arrayBytes, warm, measure}, func(m machine.Machine) float64 {
		const warmOps = 36000 // > 1.2x the EV7 L2's 28672 lines
		streams := make([]cpu.Stream, m.N())
		for i := 0; i < n; i++ {
			streams[i] = workload.NewTriad(m.RegionBase(i), arrayBytes, 1<<30)
		}
		// Warm pass: run the first warmOps of each CPU's stream so the
		// caches fill with recently-streamed lines; measurement then
		// continues the same streams into cold lines with steady-state
		// eviction traffic.
		for i := 0; i < n; i++ {
			m.CPU(i).Run(workload.NewCapped(streams[i], warmOps), nil)
		}
		m.Engine().Run()
		m.ResetStats()
		run := workload.RunTimed(m, streams, warm, measure)
		var ops uint64
		for i := 0; i < n; i++ {
			ops += m.CPU(i).Stats().Ops
		}
		if ops == 0 || run.Interval <= 0 {
			return 0 // drained before measurement; no sustained bandwidth to report
		}
		return float64(ops) * 64 / run.Interval.Seconds() / 1e9
	})
}

// Fig06StreamScaling regenerates Fig 6: STREAM Triad bandwidth scaling.
// GS1280 scales linearly (private Zboxes per CPU); GS320 saturates per
// QBB; SC45 scales in steps of four (cluster nodes share a bus).
func Fig06StreamScaling(env *Env, quick bool) *Table {
	counts := []int{1, 2, 4, 8, 16, 32, 64} // the paper's scaling sweep
	if quick {
		counts = []int{1, 4, 16}
	}
	t := &Table{
		ID:     "fig6",
		Title:  "McCalpin STREAM Triad bandwidth (GB/s) vs CPUs",
		Header: []string{"CPUs", "GS1280", "SC45", "GS320"},
	}
	const arrayBytes = 8 << 20 // 3 arrays x 8 MB >> any cache
	warm, measure := 20*sim.Microsecond, 100*sim.Microsecond
	triad := func(r rig, cpus int) float64 { return triadBandwidth(env, r, cpus, arrayBytes, warm, measure) }
	for _, n := range counts {
		w, h := machine.StandardShape(n)
		gsBW := triad(gsRig(machine.GS1280Config{W: w, H: h, RegionBytes: 32 << 20}), n)

		var sc string
		if n <= 4 {
			sc = f1(triad(smpRig(machine.ES45Config()), n))
		} else {
			// SC45 clusters ES45 nodes: triad is node-local, so bandwidth
			// is (n/4) independent nodes.
			sc = f1(triad(smpRig(machine.ES45Config()), 4) * float64(n) / 4)
		}

		old := "-"
		if n <= 32 {
			old = f1(triad(smpRig(machine.GS320Config(n)), n))
		}
		t.AddRow(fmt.Sprintf("%d", n), f1(gsBW), sc, old)
	}
	t.AddNote("paper: GS1280 linear to ~350GB/s at 64P; GS320 flat after one QBB saturates")
	return t
}

// Fig07Stream1v4 regenerates Fig 7: Triad at 1 and 4 CPUs on the three
// machines — the private-memory vs shared-bus contrast.
func Fig07Stream1v4(env *Env) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "STREAM Triad (GB/s): 1 CPU vs 4 CPUs",
		Header: []string{"machine", "1 CPU", "4 CPUs", "scaling"},
	}
	const arrayBytes = 8 << 20
	warm, measure := 20*sim.Microsecond, 100*sim.Microsecond
	row := func(name string, r rig) {
		b1 := triadBandwidth(env, r, 1, arrayBytes, warm, measure)
		b4 := triadBandwidth(env, r, 4, arrayBytes, warm, measure)
		t.AddRow(name, f2(b1), f2(b4), f2(b4/b1))
	}
	row("GS1280/1.15GHz", gsRig(machine.GS1280Config{W: 2, H: 2, RegionBytes: 32 << 20}))
	row("ES45/1.25GHz", smpRig(machine.ES45Config()))
	row("GS320/1.2GHz", smpRig(machine.GS320Config(4)))
	t.AddNote("paper: GS1280 scales ~4x (private memory per CPU); ES45/GS320 sublinear (shared bus)")
	return t
}

func byteSize(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dm", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dk", v>>10)
	default:
		return fmt.Sprintf("%d", v)
	}
}
