package experiments

import (
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/specmodel"
)

// commercialTraits model the SAP-SD and decision-support rows of Fig 28:
// latency-sensitive codes with modest footprints and poor miss overlap —
// the 1.3-1.6x class of the paper.
var commercialTraits = []specmodel.Benchmark{
	{Name: "SAP SD Transaction Processing", BaseIPC: 1.0, MPKI175: 3.2, MPKI8: 2.4, MPKI16: 1.8, OverlapFactor: 0.45},
	{Name: "Decision Support", BaseIPC: 1.1, MPKI175: 4.5, MPKI8: 3.4, MPKI16: 2.6, OverlapFactor: 0.55},
}

// Fig28Summary regenerates Fig 28: the GS1280-vs-GS320 performance-ratio
// summary across system components, standard benchmarks and application
// classes. Component ratios come from the simulator, benchmark ratios
// from the trait model, application ratios from the §5 class models.
func Fig28Summary(env *Env, quick bool) *Table {
	warm, measure := 15*sim.Microsecond, 40*sim.Microsecond
	if quick {
		warm, measure = quickWarm, quickMeasure
	}
	t := &Table{
		ID:     "fig28",
		Title:  "GS1280/1.15GHz advantage vs GS320/1.2GHz (performance ratios)",
		Header: []string{"metric", "ratio"},
	}

	// --- System components ---
	t.AddRow("CPU speed", f2(1.15/1.22))

	triad := func(r rig, n int) float64 { return triadBandwidth(env, r, n, 8<<20, warm, measure) }
	bw1 := triad(gsRig(machine.GS1280Config{W: 2, H: 1, RegionBytes: 32 << 20}), 1)
	obw1 := triad(smpRig(machine.GS320Config(4)), 1)
	t.AddRow("memory copy bw (1P)", f2(bw1/obw1))

	bw32 := triad(gsRig(machine.GS1280Config{W: 8, H: 4, RegionBytes: 32 << 20}), 32)
	obw32 := triad(smpRig(machine.GS320Config(32)), 32)
	t.AddRow("memory copy bw (32P)", f2(bw32/obw32))

	// lat measures CPU0's local clean latency, then its read-dirty latency
	// to a line CPU10 homes and last wrote, in that order on one machine.
	type latArgs struct{}
	type latencies struct{ local, dirty sim.Time }
	lat := func(r rig) latencies {
		return measureRig(env, r, latArgs{}, func(m machine.Machine) latencies {
			return latencies{ReadLatency(m, 0, 0), dirtyLatency(m, 0, 10, 10)}
		})
	}
	gsLat, oldLat := lat(gsRig(machine.GS1280Config{W: 4, H: 4})), lat(smpRig(machine.GS320Config(16)))
	t.AddRow("memory latency (local)", f2(oldLat.local.Nanoseconds()/gsLat.local.Nanoseconds()))
	t.AddRow("memory latency (dirty remote)", f2(oldLat.dirty.Nanoseconds()/gsLat.dirty.Nanoseconds()))

	// IP bandwidth: peak delivered in the random load test at 16
	// outstanding per CPU.
	ipGS := loadTest(env, gsRig(machine.GS1280Config{W: 8, H: 4}), []int{16}, warm, measure)
	ipOld := loadTest(env, smpRig(machine.GS320Config(32)), []int{16}, warm, measure)
	t.AddRow("Inter-Processor bandwidth (32P)", f2(ipGS[0].BandwidthMB/ipOld[0].BandwidthMB))

	// I/O: each EV7 has a 3.1 GB/s full-duplex I/O port (32 ports at 32P)
	// against the GS320's ~12 GB/s aggregate I/O subsystem.
	t.AddRow("I/O bandwidth (32P)", f2(32*3.1/12.4))

	// --- Standard benchmarks (trait model) ---
	gsM, oldM := specmodel.GS1280Model(), specmodel.GS320Model()
	t.AddRow("SPECint_rate2000 (16P)",
		f2(specmodel.IntRate(gsM, 16)/specmodel.IntRate(oldM, 16)))
	for _, b := range commercialTraits {
		t.AddRow(b.Name+" (32P)",
			f2(b.ThroughputIPC(gsM, 32)*gsM.FreqHz/(b.ThroughputIPC(oldM, 32)*oldM.FreqHz)))
	}
	t.AddRow("SPECfp_rate2000 (16P)",
		f2(specmodel.FPRate(gsM, 16)/specmodel.FPRate(oldM, 16)))

	// --- Application classes (simulated) ---
	app := func(r rig, n int, c appClass) float64 { return appRate(env, r, n, c, warm, measure) }
	t.AddRow("NAS Parallel (16P)",
		f2(app(gsRig(machine.GS1280Config{W: 4, H: 4, RegionBytes: 32 << 20}), 16, spClass)/
			app(smpRig(machine.GS320Config(16)), 16, spClass)))
	t.AddRow("Fluent (32P, CFD)",
		f2(app(gsRig(machine.GS1280Config{W: 8, H: 4, RegionBytes: 32 << 20}), 32, fluentClass)/
			app(smpRig(machine.GS320Config(32)), 32, fluentClass)))

	gups := func(r rig) float64 { return gupsRate(env, r, 32, warm, measure) }
	t.AddRow("GUPS (32P)", f2(gups(gsRig(machine.GS1280Config{W: 8, H: 4, RegionBytes: 16 << 20}))/
		gups(smpRig(machine.GS320Config(32)))))

	swim, _ := specmodel.ByName("swim")
	t.AddRow("swim (32P rate)",
		f2(swim.ThroughputIPC(gsM, 32)*gsM.FreqHz/(swim.ThroughputIPC(oldM, 32)*oldM.FreqHz)))

	t.AddNote("paper: IP bw >10x; I/O and memory bw ~8x; HPTC 1.7-2.6x; commercial 1.3-1.6x; ISV 1.2-2.1x; GUPS ~10x")
	return t
}
