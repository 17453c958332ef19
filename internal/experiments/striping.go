package experiments

import (
	"fmt"
	"strings"

	"gs1280/internal/machine"
	"gs1280/internal/perfmon"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// Fig26HotSpotStriping regenerates Fig 26: the hot-spot traffic pattern
// (all CPUs read CPU0's memory) with and without striping. Striping
// spreads the hot node's traffic across the module pair's four Zboxes,
// roughly doubling delivered bandwidth at saturation.
func Fig26HotSpotStriping(env *Env, quick bool) *Table {
	// The full plan is the whole hot-spot load sweep.
	outstanding, warm, measure := []int{1, 2, 4, 8, 16}, 20*sim.Microsecond, 60*sim.Microsecond
	if quick {
		outstanding, warm, measure = []int{2, 16}, quickWarm, quickMeasure
	}
	t := &Table{
		ID:     "fig26",
		Title:  "Hot-spot improvement from striping: latency (ns) vs bandwidth (MB/s)",
		Header: []string{"config", "outstanding", "bandwidth MB/s", "latency ns"},
	}
	for _, cfg := range []struct {
		name    string
		striped bool
	}{{"non-striped", false}, {"striped", true}} {
		r := gsRig(machine.GS1280Config{W: 4, H: 4, Striped: cfg.striped})
		for _, k := range outstanding {
			if p, ok := loadPoint(env, r, hotSpotReads, k, warm, measure); ok {
				t.AddRow(cfg.name, fmt.Sprintf("%d", p.Outstanding), f1(p.BandwidthMB), f1(p.LatencyNs))
			}
		}
	}
	t.AddNote("paper: striping improves hot-spot bandwidth up to 80%%; 30%% seen in real hot-spot applications")
	return t
}

// Fig27Xmesh regenerates Fig 27: the Xmesh view of a hot spot — CPU0's
// Zboxes and the links around it run far hotter than the rest of the
// machine.
func Fig27Xmesh(env *Env) *Table {
	t := &Table{
		ID:     "fig27",
		Title:  "Xmesh with a hot-spot (16P GS1280, all CPUs reading CPU0)",
		Header: []string{"CPU", "Zbox %", "IP links %"},
	}
	type args struct{}
	type xmesh struct {
		snap  perfmon.Snapshot
		lines []string // the rendered Xmesh frame
	}
	x := measureRig(env, gsRig(machine.GS1280Config{W: 4, H: 4}), args{}, func(mm machine.Machine) xmesh {
		m := mm.(*machine.GS1280) // the sampler reads a GS1280's counters
		s := perfmon.NewSampler(m, 30*sim.Microsecond)
		for i := 1; i < m.N(); i++ {
			m.CPU(i).Run(workload.NewHotSpot(m.RegionBase(0), m.RegionBytes(), 1<<30, uint64(i*31+5)), nil)
		}
		s.Schedule(1)
		m.Engine().RunUntil(31 * sim.Microsecond)
		snap := s.Snapshots[0]
		return xmesh{snap, strings.Split(strings.TrimSuffix(perfmon.Render(m.Topo, snap), "\n"), "\n")}
	})
	for i, n := range x.snap.Nodes {
		t.AddRow(fmt.Sprintf("CPU%d", i), f1(n.Zbox*100), f1(n.LinkAvg*100))
	}
	hot, util := x.snap.HottestZbox()
	t.AddNote("hottest Zbox: CPU%d at %.0f%% (paper's Xmesh shows CPU0 at 53%%)", hot, util*100)
	for _, line := range x.lines {
		t.AddNote("%s", line)
	}
	return t
}
