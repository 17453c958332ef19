package experiments

import (
	"fmt"
	"slices"

	"gs1280/internal/sim"
)

// quickWarm and quickMeasure are the quick plans' measurement windows:
// with the quick sweeps they run the whole suite in seconds, not minutes.
const (
	quickWarm    = 10 * sim.Microsecond
	quickMeasure = 25 * sim.Microsecond
)

// Env is the per-slot reusable state threaded through Unit.Run: a pool of
// simulation engines handed out in call order and Reset between uses, so
// a slot chewing through a fig-sweep stops re-growing wheel buckets, node
// pools and far-heap storage for every sweep point, and the run's Memo of
// completed measurements. A reset engine behaves bit-identically to a
// fresh one (see sim.Engine.Reset), and a memo hit returns exactly what
// computing would, so results do not depend on which slot ran a unit or
// what it ran before — the property TestGoldenOutputsAcrossWorkerCounts
// pins. The Env also carries the crit-differential mode (see critMode),
// which only CritDifferential's specs set.
//
// A nil *Env is valid: it hands out fresh engines, has no memo and runs
// with the differential mode off, so every measurement is simulated. The
// tests that compare two simulations of one point rely on that.
type Env struct {
	engines []*sim.Engine
	next    int
	memo    *Memo
	reused  int
	events  uint64 // events the engines ran before scope released them
	crit    critMode
}

// mode reports the crit-differential mode units on env run under.
func (v *Env) mode() critMode {
	if v == nil {
		return critMode{}
	}
	return v.crit
}

// NewEnv returns an empty environment whose units consult memo; a nil memo
// means none. The scheduler (internal/fleet) creates one per in-process
// slot, all sharing the run's memo, and one per worker process with a memo
// of its own; Spec.Run creates one per serial run.
func NewEnv(memo *Memo) *Env { return &Env{memo: memo} }

// Reused reports how many results the memo has served to units run on env.
func (v *Env) Reused() int {
	if v == nil {
		return 0
	}
	return v.reused
}

// BeginUnit rewinds the engine cursor; callers invoke it before each
// Unit.Run so every unit sees the same engine sequence.
func (v *Env) BeginUnit() {
	if v != nil {
		v.next = 0
	}
}

// Engine returns the next engine of the unit's sequence, reset to pristine
// state. Its only callers are the package's three measurement builders —
// measureRig for every machine, openPoint.run and degradedMapColumn for
// networks — each inside a scope (calls within one open scope return
// distinct engines).
func (v *Env) Engine() *sim.Engine {
	if v == nil {
		return sim.NewEngine()
	}
	if v.next == len(v.engines) {
		v.engines = append(v.engines, sim.NewEngine())
	}
	e := v.engines[v.next]
	v.next++
	e.Reset()
	return e
}

// scope opens a measurement on env's engines and returns the call that
// closes it: that call resets every engine handed out since, counting the
// events they ran, and rewinds the cursor, so the unit's next measurement
// reuses them. An engine's pending events reference the machine or network
// built on it; resetting drops them, so that machine is garbage as soon as
// its measurement returns rather than pinned by the slot until the engine
// is next handed out, and a slot's live heap no longer depends on which
// units it happened to run. Measurements use it as defer env.scope()().
func (v *Env) scope() (release func()) {
	if v == nil {
		return func() {}
	}
	mark := v.next
	return func() {
		for _, e := range v.engines[mark:v.next] {
			v.events += e.Executed()
			e.Reset()
		}
		v.next = mark
	}
}

// Part is one unit's contribution to an experiment's table: either a
// consecutive run of rows (plus any notes the unit derived from its own
// measurements), or — for experiments that run as a single unit — the
// whole Table.
type Part struct {
	Rows  [][]string
	Notes []string
	Table *Table
}

// Unit is one independently runnable slice of an experiment. Each unit
// builds its own machines and engine, and shares with its siblings only
// the run's write-once memo of fully keyed results, so a scheduler is free
// to run the units of one experiment — or of many — in any order and on
// any goroutine. Output determinism is restored at assembly time: parts
// are merged in declared unit order, not completion order.
type Unit struct {
	// Name identifies the unit in progress output, e.g. "fig4[32m]".
	Name string
	// Run executes the unit's simulations and returns its part of the
	// table. It must be deterministic; env supplies reusable per-slot
	// engines and the run's memo (nil is valid and means "build fresh
	// ones, and simulate everything").
	Run func(env *Env) Part
}

// Spec declares one experiment in parallelizable form: how a run splits
// into independent units, and how the units' parts (delivered in Units
// order regardless of execution order) assemble into the final table.
// Sweep-style experiments (fig4, fig14, fig15, fig23) expose one unit per
// sweep point; the rest are single-unit. Each experiment declares its quick
// and full plan once, in its own file: a sweep in its Spec builder's
// Units, a single-unit experiment in the function whole wraps.
type Spec struct {
	ID       string
	Units    func(quick bool) []Unit
	Assemble func(quick bool, parts []Part) *Table
}

// Run executes the experiment serially: its units in order on the calling
// goroutine with an Env and a Memo of their own, then assembled. Serial
// and parallel runs share the units, so they share one code path per
// experiment.
func (s Spec) Run(quick bool) *Table { return s.run(NewEnv(NewMemo()), quick) }

// run executes the spec's units in order on env and assembles them.
func (s Spec) run(env *Env, quick bool) *Table {
	units := s.Units(quick)
	parts := make([]Part, len(units))
	for i, u := range units {
		env.BeginUnit()
		parts[i] = u.Run(env)
	}
	return s.Assemble(quick, parts)
}

// whole wraps a monolithic experiment as a single-unit Spec. The
// experiment receives the unit's env, whose memo its keyed measurements
// consult.
func whole(id string, run func(env *Env, quick bool) *Table) Spec {
	return Spec{
		ID: id,
		Units: func(q bool) []Unit {
			return []Unit{{Name: id, Run: func(env *Env) Part { return Part{Table: run(env, q)} }}}
		},
		Assemble: func(_ bool, parts []Part) *Table { return parts[0].Table },
	}
}

// sweepUnits builds one Unit per sweep point: name labels the point for
// progress output, run measures it. The shared shape of every sweep-style
// Spec (fig4, fig14, fig15, fig23, the saturation sweeps).
func sweepUnits[T any](points []T, name func(T) string, run func(*Env, T) Part) []Unit {
	units := make([]Unit, len(points))
	for i, p := range points {
		p := p
		units[i] = Unit{Name: name(p), Run: func(env *Env) Part { return run(env, p) }}
	}
	return units
}

// assemble appends each part's rows and notes to t in part order.
func assemble(t *Table, parts []Part) *Table {
	for _, p := range parts {
		t.Rows = append(t.Rows, p.Rows...)
		t.Notes = append(t.Notes, p.Notes...)
	}
	return t
}

// Specs lists every experiment in paper order (fig1..fig15, tab1,
// fig18..fig28, then the ablation companion). Every Spec is stateless, so
// the list is built once; each call returns its own copy.
func Specs() []Spec { return slices.Clone(catalog) }

// catalog is the experiment list, built once at package initialization.
var catalog = specs()

func specs() []Spec {
	return []Spec{
		whole("fig1", func(*Env, bool) *Table { return Fig01SPECfpRate() }),
		fig04Spec(),
		whole("fig5", Fig05StrideSweep),
		whole("fig6", Fig06StreamScaling),
		whole("fig7", func(env *Env, _ bool) *Table { return Fig07Stream1v4(env) }),
		whole("fig8", func(*Env, bool) *Table { return Fig08IPCfp() }),
		whole("fig9", func(*Env, bool) *Table { return Fig09IPCint() }),
		whole("fig10", func(*Env, bool) *Table { return Fig10UtilFp() }),
		whole("fig11", func(*Env, bool) *Table { return Fig11UtilInt() }),
		whole("fig12", func(env *Env, _ bool) *Table { return Fig12RemoteLatency(env) }),
		whole("fig13", func(env *Env, _ bool) *Table { return Fig13LatencyMatrix(env) }),
		fig14Spec(),
		fig15Spec(),
		whole("tab1", func(*Env, bool) *Table { return Tab1ShuffleAnalytic() }),
		fig1617Spec(),
		whole("fig18", Fig18ShuffleMeasured),
		whole("fig19", Fig19Fluent),
		whole("fig20", func(env *Env, _ bool) *Table { return Fig20FluentUtil(env) }),
		whole("fig21", Fig21NASSP),
		whole("fig22", func(env *Env, _ bool) *Table { return Fig22SPUtil(env) }),
		fig23Spec(),
		whole("fig24", func(env *Env, _ bool) *Table { return Fig24GUPSUtil(env) }),
		whole("fig25", func(*Env, bool) *Table { return Fig25StripingDegradation() }),
		whole("fig26", Fig26HotSpotStriping),
		whole("fig27", func(env *Env, _ bool) *Table { return Fig27Xmesh(env) }),
		whole("fig28", Fig28Summary),
		saturUniform.spec(),
		saturTranspose.spec(),
		saturHotspot.spec(),
		degradedSatur.spec(),
		degradedMapSpec(),
		tailSatur.spec(),
		tailDegraded.spec(),
		tailMissSpec(),
		flakySatur.spec(),
		flakyQuarantine.spec(),
		whole("ablation", AblationLoadTest),
	}
}

// SpecByID looks up one experiment's Spec.
func SpecByID(id string) (Spec, bool) {
	for _, s := range catalog {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs reports all experiment ids in paper order (the order of Specs).
func IDs() []string {
	ids := make([]string, len(catalog))
	for i, s := range catalog {
		ids[i] = s.ID
	}
	return ids
}

// Run executes the experiment with the given id serially.
func Run(id string, quick bool) (*Table, error) {
	s, ok := SpecByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (see IDs())", id)
	}
	return s.Run(quick), nil
}
