package experiments

import (
	"fmt"

	"gs1280/internal/specmodel"
)

// Fig01SPECfpRate regenerates Fig 1: SPECfp_rate2000 scaling. GS1280
// scales linearly (private memory per CPU); SC45 scales in 4-CPU node
// steps; GS320 bends as each QBB's bus saturates.
func Fig01SPECfpRate() *Table {
	t := &Table{
		ID:     "fig1",
		Title:  "SPECfp_rate2000 (peak, modeled) vs CPUs",
		Header: []string{"CPUs", "GS1280/1.15GHz", "SC45/1.25GHz", "GS320/1.2GHz"},
	}
	// The published-results sweep, the quick and full plan alike: the
	// trait model simulates nothing.
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		t.AddRow(fmt.Sprintf("%d", n),
			f1(specmodel.FPRate(specmodel.GS1280Model(), n)),
			f1(specmodel.FPRate(specmodel.SC45Model(), n)),
			f1(specmodel.FPRate(specmodel.GS320Model(), n)))
	}
	t.AddNote("paper: GS1280 well above both previous-generation platforms despite a lower clock")
	return t
}

// Fig08IPCfp regenerates Fig 8: per-benchmark SPECfp2000 IPC on the three
// machines, derived from the trait model (see internal/specmodel).
func Fig08IPCfp() *Table {
	return ipcTable("fig8", "IPC comparison: SPECfp2000", specmodel.FP2000(),
		"paper highlights: swim 2.3x vs ES45 and 4x vs GS320; facerec and ammp favor the 16MB caches")
}

// Fig09IPCint regenerates Fig 9: SPECint2000 IPC — mostly comparable
// across generations because the integer codes fit MB-scale caches.
func Fig09IPCint() *Table {
	return ipcTable("fig9", "IPC comparison: SPECint2000", specmodel.Int2000(),
		"paper: integer IPC comparable across machines (cache-resident), mcf the memory-bound exception")
}

func ipcTable(id, title string, suite []specmodel.Benchmark, note string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"benchmark", "GS1280/1.15GHz", "ES45/1.25GHz", "GS320/1.22GHz"},
	}
	gs, es, old := specmodel.GS1280Model(), specmodel.ES45Model(), specmodel.GS320Model()
	for _, b := range suite {
		t.AddRow(b.Name, f2(b.IPC(gs)), f2(b.IPC(es)), f2(b.IPC(old)))
	}
	t.AddNote(note)
	return t
}

// Fig10UtilFp regenerates Fig 10: GS1280 memory-controller utilization
// over the run for SPECfp2000. Each row summarizes the synthesized phase
// profile (peak and mean) whose peak is calibrated to the paper's
// histogram.
func Fig10UtilFp() *Table {
	return utilProfileTable("fig10", "SPECfp2000: GS1280 memory controller utilization", specmodel.FP2000(),
		"paper: swim leads at 53%%; applu/lucas/equake/mgrid 20-30%%; facerec only 8%% yet still loses (cache size)")
}

// Fig11UtilInt regenerates Fig 11 for SPECint2000.
func Fig11UtilInt() *Table {
	return utilProfileTable("fig11", "SPECint2000: GS1280 memory controller utilization", specmodel.Int2000(),
		"paper: mcf highest (~24%%), everything else far lower")
}

func utilProfileTable(id, title string, suite []specmodel.Benchmark, note string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"benchmark", "peak %", "mean %", "profile (12 samples, %)"},
	}
	for _, b := range suite {
		p := b.Profile(12)
		peak, sum := 0.0, 0.0
		cells := ""
		for i, v := range p {
			if v > peak {
				peak = v
			}
			sum += v
			if i > 0 {
				cells += " "
			}
			cells += fmt.Sprintf("%2.0f", v*100)
		}
		t.AddRow(b.Name, f1(peak*100), f1(sum/float64(len(p))*100), cells)
	}
	t.AddNote(note)
	return t
}

// Fig25StripingDegradation regenerates Fig 25: per-benchmark throughput
// loss when memory is striped across module pairs — every SPECfp rate
// copy pays the module hop for half its lines and gains nothing.
func Fig25StripingDegradation() *Table {
	t := &Table{
		ID:     "fig25",
		Title:  "Degradation from striping: SPECfp_rate2000",
		Header: []string{"benchmark", "degradation %"},
	}
	m := specmodel.GS1280Model()
	for _, b := range specmodel.FP2000() {
		deg := (1 - b.StripedIPC(m)/b.IPC(m)) * 100
		t.AddRow(b.Name, f1(deg))
	}
	t.AddNote("paper: 10-30%% degradation for throughput workloads (up to 70%% in extremes)")
	return t
}
