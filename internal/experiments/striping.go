package experiments

import (
	"fmt"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/perfmon"
	"gs1280/internal/sim"
	"gs1280/internal/workload"
)

// hotSpotCurve drives every CPU except 0 at random lines of CPU0's
// memory with k outstanding each, returning aggregate bandwidth and mean
// latency.
func hotSpotCurve(striped bool, outstanding []int, warm, measure sim.Time) []LoadPoint {
	var pts []LoadPoint
	for _, k := range outstanding {
		m := newGS1280(machine.GS1280Config{W: 4, H: 4, Striped: striped})
		ss := make([]cpu.Stream, m.N())
		for i := 1; i < m.N(); i++ {
			m.CPU(i).SetMLP(k)
			ss[i] = workload.NewHotSpot(m.RegionBase(0), m.RegionBytes(), 1<<30, uint64(i*31+5))
		}
		run := workload.RunTimed(m, ss, warm, measure)
		var ops uint64
		var latSum sim.Time
		for i := 1; i < m.N(); i++ {
			st := m.CPU(i).Stats()
			ops += st.Ops
			latSum += st.LatencySum
		}
		if run.Drained && (ops == 0 || run.Interval <= 0) {
			pts = append(pts, LoadPoint{Outstanding: k, Drained: true})
			continue
		}
		if ops == 0 {
			continue
		}
		pts = append(pts, LoadPoint{
			Outstanding: k,
			BandwidthMB: float64(ops) * 64 / run.Interval.Seconds() / 1e6,
			LatencyNs:   (latSum / sim.Time(ops)).Nanoseconds(),
		})
	}
	return pts
}

// Fig26Outstanding is the full hot-spot load sweep.
var Fig26Outstanding = []int{1, 2, 4, 8, 16}

// Fig26HotSpotStriping regenerates Fig 26: the hot-spot traffic pattern
// (all CPUs read CPU0's memory) with and without striping. Striping
// spreads the hot node's traffic across the module pair's four Zboxes,
// roughly doubling delivered bandwidth at saturation.
func Fig26HotSpotStriping(quick bool) *Table {
	outstanding, warm, measure := Fig26Outstanding, 20*sim.Microsecond, 60*sim.Microsecond
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
		for _, p := range hotSpotCurve(cfg.striped, outstanding, warm, measure) {
			t.AddRow(cfg.name, fmt.Sprintf("%d", p.Outstanding), f1(p.BandwidthMB), f1(p.LatencyNs))
		}
	}
	t.AddNote("paper: striping improves hot-spot bandwidth up to 80%%; 30%% seen in real hot-spot applications")
	return t
}

// Fig27Xmesh regenerates Fig 27: the Xmesh view of a hot spot — CPU0's
// Zboxes and the links around it run far hotter than the rest of the
// machine.
func Fig27Xmesh() *Table {
	t := &Table{
		ID:     "fig27",
		Title:  "Xmesh with a hot-spot (16P GS1280, all CPUs reading CPU0)",
		Header: []string{"CPU", "Zbox %", "IP links %"},
	}
	m := newGS1280(machine.GS1280Config{W: 4, H: 4})
	s := perfmon.NewSampler(m, 30*sim.Microsecond)
	for i := 1; i < m.N(); i++ {
		m.CPU(i).Run(workload.NewHotSpot(m.RegionBase(0), m.RegionBytes(), 1<<30, uint64(i*31+5)), nil)
	}
	s.Schedule(1)
	m.Engine().RunUntil(31 * sim.Microsecond)
	snap := s.Snapshots[0]
	for i, n := range snap.Nodes {
		t.AddRow(fmt.Sprintf("CPU%d", i), f1(n.Zbox*100), f1(n.LinkAvg*100))
	}
	hot, util := snap.HottestZbox()
	t.AddNote("hottest Zbox: CPU%d at %.0f%% (paper's Xmesh shows CPU0 at 53%%)", hot, util*100)
	for _, line := range splitLines(perfmon.Render(m.Topo, snap)) {
		t.AddNote("%s", line)
	}
	return t
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
