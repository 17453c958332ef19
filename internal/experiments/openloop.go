package experiments

import (
	"fmt"

	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
	"gs1280/internal/traffic"
)

// The open-loop experiments — the satur-*, degraded-satur, tail-satur,
// tail-degraded and flaky-* sweeps, and fig16x17's matrix — all measure one
// simulation: a fresh network on the unit's engine, driven by
// internal/traffic's injector. openPoint declares that simulation once;
// each sweep is an openFamily, package-level data that walks openPoint
// along a variant axis, an optional level axis and offered load.

// openPoint is one open-loop measurement. Every knob's zero value is the
// healthy, FIFO, single-class baseline on the 64P (8x8) torus, and a zero
// knob schedules no event, draws no random number and installs no layer.
// So points that differ only in zero knobs run bit-identical simulations,
// and the cross-family identities — degraded-satur at 0 faults, flaky-satur
// at ber 0, tail-satur's fifo rows against satur-uniform's adaptive rows —
// hold by construction (the *MatchSaturUniform tests pin them).
type openPoint struct {
	// Fabric knobs.
	wiring        wiring               // zero: the 8x8 torus
	policy        topology.RoutePolicy // network.Params.Policy
	escape        bool                 // network.Params.DisableAdaptive
	critArb       bool                 // network.Params.CritArb
	faults        int                  // failed cables (degradedFaults), armed mid-warmup
	ber           float64              // fabric-wide per-hop error rate, half drops, half corruptions
	badCable      float64              // the same, on the row-0 X wrap cable alone
	quarThreshold int                  // network.Params.QuarantineThreshold
	quarProbation sim.Time             // network.Params.QuarantineProbation

	// Traffic knobs.
	pattern         traffic.Pattern // nil: uniform
	bgFrac, ctlFrac float64         // traffic.Config's criticality mix
	rate            float64         // offered packets per node per microsecond
	seed            uint64
}

// wiring is an open-loop point's fabric: a w x h torus, re-cabled as a
// shuffle when shuffle is set. Zero dimensions mean 8x8.
type wiring struct {
	w, h    int
	shuffle bool
}

func (w wiring) build() *topology.Topology {
	x, y := w.w, w.h
	if x == 0 {
		x, y = 8, 8
	}
	if w.shuffle {
		return topology.NewShuffle(x, y)
	}
	return topology.NewTorus(x, y)
}

// run measures the point on the unit's next engine: warm, then measure of
// simulated time. It is the package's only traffic.Run call. The point and
// its windows key the measurement in env's memo; a nil pattern keys as the
// uniform one it runs, so the zero-knob points of the degraded and flaky
// sweeps find satur-uniform's results.
func (p openPoint) run(env *Env, warm, measure sim.Time) traffic.Result {
	if p.pattern == nil {
		p.pattern = traffic.Uniform()
	}
	type args struct {
		p             openPoint
		warm, measure sim.Time
	}
	return memoized(env, args{p, warm, measure}, func() traffic.Result {
		topo := p.wiring.build()
		params := network.DefaultParams()
		params.Policy = p.policy
		params.DisableAdaptive = p.escape
		// The golden differential (see critMode) forces arbitration on
		// for exactly the single-class points, where it must reduce to
		// FIFO.
		params.CritArb = p.critArb || env.mode().on && p.bgFrac == 0 && p.ctlFrac == 0
		if p.ber > 0 {
			params.LinkDropRate = p.ber / 2
			params.LinkCorruptRate = p.ber / 2
			params.LinkErrorSeed = 1
		}
		params.QuarantineThreshold = p.quarThreshold
		params.QuarantineProbation = p.quarProbation
		net := network.New(env.Engine(), topo, params)
		if p.badCable > 0 {
			net.SetLinkError(degradedFaults(topo, 1)[0], p.badCable/2, p.badCable/2)
		}
		scheduleFaults(net, topo, p.faults, warm)
		return traffic.Run(net, traffic.Config{
			Pattern: p.pattern,
			Rate:    p.rate / 1000, // knob rates are per us; traffic wants per ns
			Class:   network.Request,
			Size:    network.DataPacketSize,
			Seed:    p.seed,
			Warmup:  warm,
			Measure: measure,
			BgFrac:  p.bgFrac,
			CtlFrac: p.ctlFrac,
		})
	})
}

// openPlan returns the offered-load sweep, in packets per node per
// microsecond, and windows of the open-loop experiments.
func openPlan(q bool) (rates []float64, warm, measure sim.Time) {
	if q {
		return saturQuickRates, quickWarm, quickMeasure
	}
	// The full sweep spans idle to past the knee for every pattern: the
	// 64P torus saturates in the mid-40s for adaptive uniform traffic,
	// earlier for transpose and hotspot.
	return []float64{2, 5, 10, 15, 20, 25, 30, 40, 50, 60}, 15 * sim.Microsecond, 40 * sim.Microsecond
}

// openVariant is one entry of a variant axis: the name that labels the
// row and the knobs it sets on the family's base point.
type openVariant struct {
	name string
	set  func(*openPoint)
}

// openAxis is a family's variant axis and the header of its name column.
type openAxis struct {
	header string
	list   []openVariant
}

// openLevel is a family's optional level axis: one numeric knob, printed as
// a column and keyed into unit names.
type openLevel struct {
	key, header string // unit-name key ("f") and column header
	full, quick []float64
	set         func(*openPoint, float64)
}

// openCol is one measured column: its header and the cell it formats from
// the point's result.
type openCol struct {
	header string
	cell   func(traffic.Result) string
}

// The measured columns the families share.
var (
	colDelivered   = openCol{"delivered MB/s", func(r traffic.Result) string { return f1(r.DeliveredMBs()) }}
	colLatency     = openCol{"avg latency ns", func(r traffic.Result) string { return f1(r.AvgLatencyNs()) }}
	colP99         = openCol{"p99 ns", func(r traffic.Result) string { return fq(r.Lat.P99) }}
	colReroutes    = openCol{"reroutes", func(r traffic.Result) string { return fmt.Sprint(r.Reroutes) }}
	colNonMinimal  = openCol{"non-minimal hops", func(r traffic.Result) string { return fmt.Sprint(r.NonMinimalHops) }}
	colRetransmits = openCol{"retransmits", func(r traffic.Result) string { return fmt.Sprint(r.Retransmits) }}
	colDroppedHops = openCol{"dropped hops", func(r traffic.Result) string { return fmt.Sprint(r.DroppedHops) }}
	colAckMsgs     = openCol{"ack msgs", func(r traffic.Result) string { return fmt.Sprint(r.AckMsgs) }}
)

// saturCols are the satur-* measurements, which the degraded and flaky
// sweeps of the same fabric extend.
var saturCols = []openCol{
	colDelivered,
	colLatency,
	{"accepted %", func(r traffic.Result) string { return f1(r.AcceptedFrac() * 100) }},
	{"avg util %", func(r traffic.Result) string { return f1(r.AvgLinkUtil * 100) }},
	{"max util %", func(r traffic.Result) string { return f1(r.MaxLinkUtil * 100) }},
	{"peak queue", func(r traffic.Result) string { return fmt.Sprint(r.PeakQueued) }},
}

// openFamily is one open-loop sweep: the base point, the axes it walks and
// the table it prints. Each row leads with the variant name, the level (if
// any) and the offered rate, then the family's columns.
type openFamily struct {
	id, title string
	base      openPoint
	variants  openAxis
	// sameSeed gives every variant the same traffic (the seed ignores the
	// variant index), so the variants ablate a policy point for point.
	sameSeed bool
	level    *openLevel
	cols     []openCol
	notes    []string
}

// spec exposes the family as one unit per (level, variant, rate) point,
// nested in that order, level outermost. A unit captures only the three
// indices and builds its point when it runs.
func (f *openFamily) spec() Spec {
	return Spec{ID: f.id, Units: f.units, Assemble: f.assemble}
}

// levels returns the level axis of the quick or full sweep: one unlabeled
// level when the family has none.
func (f *openFamily) levels(q bool) []float64 {
	switch {
	case f.level == nil:
		return []float64{0}
	case q:
		return f.level.quick
	}
	return f.level.full
}

// point builds the (level, variant, rate) point of the quick or full sweep.
// The seed depends on the variant and rate indices, never on the level, so
// every level replays the same traffic.
func (f *openFamily) point(q bool, li, vi, ri int) openPoint {
	rates, _, _ := openPlan(q)
	p := f.base
	f.variants.list[vi].set(&p)
	if f.level != nil {
		f.level.set(&p, f.levels(q)[li])
	}
	if f.sameSeed {
		vi = 0
	}
	p.rate, p.seed = rates[ri], uint64(vi*104729+ri*7919+1)
	return p
}

func (f *openFamily) units(q bool) []Unit {
	rates, warm, measure := openPlan(q)
	levels := f.levels(q)
	type at struct{ li, vi, ri int }
	points := make([]at, 0, len(levels)*len(f.variants.list)*len(rates))
	for li := range levels {
		for vi := range f.variants.list {
			for ri := range rates {
				points = append(points, at{li, vi, ri})
			}
		}
	}
	return sweepUnits(points,
		func(a at) string {
			v, r := f.variants.list[a.vi].name, rates[a.ri]
			if f.level == nil {
				return fmt.Sprintf("%s[%s,r=%g]", f.id, v, r)
			}
			return fmt.Sprintf("%s[%s=%g,%s,r=%g]", f.id, f.level.key, levels[a.li], v, r)
		},
		func(env *Env, a at) Part {
			res := f.point(q, a.li, a.vi, a.ri).run(env, warm, measure)
			row := []string{f.variants.list[a.vi].name}
			if f.level != nil {
				row = append(row, fmt.Sprintf("%g", levels[a.li]))
			}
			row = append(row, fmt.Sprintf("%g", rates[a.ri]))
			for _, c := range f.cols {
				row = append(row, c.cell(res))
			}
			return Part{Rows: [][]string{row}}
		})
}

func (f *openFamily) assemble(_ bool, parts []Part) *Table {
	header := []string{f.variants.header}
	if f.level != nil {
		header = append(header, f.level.header)
	}
	header = append(header, "offered pkts/node/us")
	for _, c := range f.cols {
		header = append(header, c.header)
	}
	t := assemble(&Table{ID: f.id, Title: f.title, Header: header}, parts)
	t.Notes = append(t.Notes, f.notes...)
	return t
}
