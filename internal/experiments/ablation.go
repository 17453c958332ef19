package experiments

import (
	"fmt"

	"gs1280/internal/machine"
	"gs1280/internal/memctrl"
	"gs1280/internal/network"
	"gs1280/internal/sim"
)

// AblationLoadTest quantifies the design choices docs/ARCHITECTURE.md
// calls out by
// switching them off one at a time and re-running the §4 load test on the
// 16-CPU machine:
//
//   - adaptive routing vs. the deterministic escape path only;
//   - home-controller NAK/retry on vs. off;
//   - open-page RDRAM policy vs. every access closed-page.
//
// It is not a paper artifact but an engineering companion: it shows how
// much of the GS1280's load resilience each mechanism buys.
func AblationLoadTest(env *Env, quick bool) *Table {
	outstanding, warm, measure := []int{4, 16, 30}, 20*sim.Microsecond, 60*sim.Microsecond
	if quick {
		outstanding, warm, measure = []int{4, 30}, quickWarm, quickMeasure
	}
	t := &Table{
		ID:     "ablation",
		Title:  "Ablation: load test (16P GS1280) with mechanisms disabled",
		Header: []string{"variant", "outstanding", "bandwidth MB/s", "latency ns"},
	}
	variants := []struct {
		name string
		cfg  machine.GS1280Config
	}{
		{"baseline", machine.GS1280Config{W: 4, H: 4}},
		{"nak-retry", machine.GS1280Config{W: 4, H: 4, NAKThreshold: 8}},
		{"det-routing", machine.GS1280Config{W: 4, H: 4,
			NetOverride: func(p *network.Params) { p.DisableAdaptive = true }}},
	}
	for _, v := range variants {
		for _, p := range loadTest(env, gsRig(v.cfg), outstanding, warm, measure) {
			bw, lat := loadCells(p)
			t.AddRow(v.name, fmt.Sprintf("%d", p.Outstanding), bw, lat)
		}
	}
	// The open-page policy only matters for sequential traffic (random
	// load-test reads miss pages regardless), so it is ablated with a
	// 64-byte-stride chase instead.
	open := chaseLatency(env, gsRig(machine.GS1280Config{W: 2, H: 1}), 8<<20, 64, 60000)
	closed := chaseLatency(env, gsRig(machine.GS1280Config{W: 2, H: 1,
		ZboxOverride: func(p *memctrl.Params) { p.HitLatency = p.MissLatency }}),
		8<<20, 64, 60000)
	t.AddRow("open-page (chase)", "-", "-", fns(open))
	t.AddRow("closed-page (chase)", "-", "-", fns(closed))
	t.AddNote("deterministic routing loses path diversity: latency grows faster under load")
	t.AddNote("closing every page costs the precharge+activate penalty on sequential loads")
	return t
}
