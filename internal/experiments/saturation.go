package experiments

import (
	"fmt"

	"gs1280/internal/sim"
	"gs1280/internal/topology"
	"gs1280/internal/traffic"
)

// The saturation experiments drive the interconnect with internal/traffic's
// open-loop injector instead of the closed-loop CPU workloads: offered load
// is swept from near-idle past the saturation knee, which is the classic
// latency-vs-offered-load methodology (cf. the SPARC T3-4 and criticality
// characterizations in PAPERS.md) the paper itself never plots. They also
// fill the fig15 -> fig18 numbering gap: the paper's Figs 16/17 are shuffle
// wiring diagrams with no measured counterpart, so fig16x17 maps latency
// under load across traffic permutations and wirings.

// saturQuickRates is the quick plan's offered-load sweep (see openPlan).
var saturQuickRates = []float64{5, 20, 60}

// routings is the variant axis of the sweeps that compare adaptive routing
// with the deterministic escape path.
var routings = openAxis{"routing", []openVariant{
	{"adaptive", func(*openPoint) {}},
	{"deterministic", func(p *openPoint) { p.escape = true }},
}}

// The satur-* sweeps walk routing x offered load on the 64-CPU (8x8) torus,
// one traffic pattern each. The hotspot target is node 0, matching the §6
// hot-node experiments.
var (
	saturUniform   = saturFamily("satur-uniform", traffic.Uniform())
	saturTranspose = saturFamily("satur-transpose", traffic.Transpose())
	saturHotspot   = saturFamily("satur-hotspot", traffic.Hotspot(0, 0.2))
)

func saturFamily(id string, pattern traffic.Pattern) *openFamily {
	return &openFamily{
		id:       id,
		title:    fmt.Sprintf("Offered-load saturation sweep: %s traffic on the 64P (8x8) torus", pattern.Name()),
		base:     openPoint{pattern: pattern},
		variants: routings,
		cols:     saturCols,
		notes: []string{
			"open loop: latency stays near zero-load to the knee, then source queues reject offered packets",
			"adaptive routing holds the knee at higher load than the deterministic escape path",
		},
	}
}

// fig1617Patterns are the permutations of the latency-under-load matrix.
var fig1617Patterns = []struct {
	name    string
	pattern traffic.Pattern
}{
	{"uniform", traffic.Uniform()},
	{"transpose", traffic.Transpose()},
	{"bit-complement", traffic.BitComplement()},
	{"neighbor", traffic.NearestNeighbor()},
	{"hotspot", traffic.Hotspot(0, 0.2)},
}

// fig1617Loads are the offered loads of the matrix in packets per node per
// microsecond: comfortably below the 16P torus knee, and near it.
var fig1617Loads = []float64{10, 30}

// fig1617Point measures one (pattern, load) row across the three wirings:
// the standard torus with adaptive routing, the same torus restricted to
// the deterministic escape path, and the §4.1 shuffle re-cabling with the
// 2-hop chord policy.
func fig1617Point(env *Env, pi, li int, warm, measure sim.Time) Part {
	pat := fig1617Patterns[pi]
	adaptive := openPoint{
		wiring:  wiring{w: 4, h: 4},
		pattern: pat.pattern,
		rate:    fig1617Loads[li],
		seed:    uint64(pi*7919 + li*104729 + 1),
	}
	escape, shuffle := adaptive, adaptive
	escape.escape = true
	shuffle.wiring.shuffle = true
	shuffle.policy = topology.RouteShuffle2Hop
	row := []string{pat.name, fmt.Sprintf("%g", adaptive.rate)}
	var mbs []string
	for _, p := range []openPoint{adaptive, escape, shuffle} {
		res := p.run(env, warm, measure)
		row = append(row, f1(res.AvgLatencyNs()))
		mbs = append(mbs, f1(res.DeliveredMBs()))
	}
	return Part{Rows: [][]string{append(row, mbs...)}}
}

func fig1617Assemble(parts []Part) *Table {
	t := assemble(&Table{
		ID:    "fig16x17",
		Title: "Figs 16/17 gap: latency under load across patterns and wirings (16P)",
		Header: []string{"pattern", "offered pkts/node/us",
			"torus-adaptive ns", "torus-escape ns", "shuffle-2hop ns",
			"torus-adaptive MB/s", "torus-escape MB/s", "shuffle-2hop MB/s"},
	}, parts)
	t.AddNote("the paper's Figs 16/17 are wiring diagrams only; this matrix measures the wirings they describe")
	t.AddNote("adaptive vs escape separates on permutations that fold load onto few paths (transpose, hotspot)")
	return t
}

// fig1617Spec exposes the matrix as one unit per (pattern, load) row.
func fig1617Spec() Spec {
	return Spec{
		ID: "fig16x17",
		Units: func(q bool) []Unit {
			_, warm, measure := openPlan(q)
			first := 0
			if q {
				first = 1 // near-knee load only
			}
			type cellID struct{ pi, li int }
			var points []cellID
			for pi := range fig1617Patterns {
				for li := first; li < len(fig1617Loads); li++ {
					points = append(points, cellID{pi, li})
				}
			}
			return sweepUnits(points,
				func(c cellID) string {
					return fmt.Sprintf("fig16x17[%s,r=%g]", fig1617Patterns[c.pi].name, fig1617Loads[c.li])
				},
				func(env *Env, c cellID) Part { return fig1617Point(env, c.pi, c.li, warm, measure) })
		},
		Assemble: func(_ bool, parts []Part) *Table { return fig1617Assemble(parts) },
	}
}
