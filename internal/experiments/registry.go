package experiments

import (
	"fmt"
	"slices"

	"gs1280/internal/sim"
)

// quick durations shrink simulated measurement windows and sweep densities
// so the full suite runs in seconds instead of minutes.
const (
	quickWarm    = 10 * sim.Microsecond
	quickMeasure = 25 * sim.Microsecond
)

var quickSizes = []int64{16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 32 << 20}

// Runner regenerates one paper artifact serially. quick trades sweep
// density for runtime without changing the experiment's structure.
type Runner func(quick bool) *Table

// Env is the per-worker reusable state threaded through Unit.Run: a pool
// of simulation engines handed out in call order and Reset between uses,
// so a worker chewing through a fig-sweep stops re-growing wheel buckets,
// node pools and far-heap storage for every sweep point. A reset engine
// behaves bit-identically to a fresh one (see sim.Engine.Reset), so
// results do not depend on which worker ran a unit or what it ran before —
// the property TestGoldenOutputsAcrossWorkerCounts pins.
//
// A nil *Env is valid and simply hands out fresh engines; the exported
// serial entry points (Fig04DependentLoad, Fig15LoadTest, ...) use that.
type Env struct {
	engines []*sim.Engine
	next    int
}

// NewEnv returns an empty environment. The scheduler (internal/fleet)
// creates one per in-process slot and one per worker process;
// Spec.Runner creates one per serial run.
func NewEnv() *Env { return &Env{} }

// BeginUnit rewinds the engine cursor; callers invoke it before each
// Unit.Run so every unit sees the same engine sequence.
func (v *Env) BeginUnit() {
	if v != nil {
		v.next = 0
	}
}

// Engine returns the next engine of the unit's sequence, reset to pristine
// state. Units call it once per concurrently-live machine or network they
// build (calls during one unit return distinct engines).
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
// builds its own machines and engine and shares no mutable state with its
// siblings, so a scheduler is free to run the units of one experiment — or
// of many — in any order and on any goroutine. Output determinism is
// restored at assembly time: parts are merged in declared unit order, not
// completion order.
type Unit struct {
	// Name identifies the unit in progress output, e.g. "fig4[32m]".
	Name string
	// Run executes the unit's simulations and returns its part of the
	// table. It must be deterministic and share no state with sibling
	// units; env supplies reusable per-worker engines (nil is valid and
	// means "build fresh ones").
	Run func(env *Env) Part
}

// Spec declares one experiment in parallelizable form: how a run splits
// into independent units, and how the units' parts (delivered in Units
// order regardless of execution order) assemble into the final table.
// Sweep-style experiments (fig4, fig14, fig15, fig23) expose one unit per
// sweep point; the rest are single-unit.
type Spec struct {
	ID       string
	Units    func(quick bool) []Unit
	Assemble func(quick bool, parts []Part) *Table
}

// Runner flattens the spec back into a serial runner: units executed in
// order on the calling goroutine, then assembled. Registry is built from
// this, so serial and parallel runs share one code path per experiment.
func (s Spec) Runner() Runner {
	return func(quick bool) *Table {
		units := s.Units(quick)
		parts := make([]Part, len(units))
		env := NewEnv()
		for i, u := range units {
			env.BeginUnit()
			parts[i] = u.Run(env)
		}
		return s.Assemble(quick, parts)
	}
}

// whole wraps a monolithic experiment as a single-unit Spec. Monolithic
// runners build their own machines internally, so they ignore env.
func whole(id string, run Runner) Spec {
	return Spec{
		ID: id,
		Units: func(q bool) []Unit {
			return []Unit{{Name: id, Run: func(*Env) Part { return Part{Table: run(q)} }}}
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
		whole("fig1", func(bool) *Table { return Fig01SPECfpRate(nil) }),
		fig04Spec(),
		whole("fig5", func(q bool) *Table {
			if q {
				return Fig05StrideSweep([]int64{64 << 10, 1 << 20, 4 << 20}, []int64{64, 1 << 10, 16 << 10})
			}
			return Fig05StrideSweep(nil, nil)
		}),
		whole("fig6", func(q bool) *Table {
			if q {
				return Fig06StreamScaling([]int{1, 4, 16})
			}
			return Fig06StreamScaling(nil)
		}),
		whole("fig7", func(bool) *Table { return Fig07Stream1v4() }),
		whole("fig8", func(bool) *Table { return Fig08IPCfp() }),
		whole("fig9", func(bool) *Table { return Fig09IPCint() }),
		whole("fig10", func(bool) *Table { return Fig10UtilFp() }),
		whole("fig11", func(bool) *Table { return Fig11UtilInt() }),
		whole("fig12", func(bool) *Table { return Fig12RemoteLatency() }),
		whole("fig13", func(bool) *Table { return Fig13LatencyMatrix() }),
		fig14Spec(),
		fig15Spec(),
		whole("tab1", func(bool) *Table { return Tab1ShuffleAnalytic() }),
		fig1617Spec(),
		whole("fig18", func(q bool) *Table {
			if q {
				return Fig18ShuffleMeasured([]int{2, 8}, quickWarm, quickMeasure)
			}
			return Fig18ShuffleMeasured(nil, 0, 0)
		}),
		whole("fig19", func(q bool) *Table {
			if q {
				return Fig19Fluent([]int{4, 16}, quickWarm, quickMeasure)
			}
			return Fig19Fluent(nil, 0, 0)
		}),
		whole("fig20", func(bool) *Table { return Fig20FluentUtil() }),
		whole("fig21", func(q bool) *Table {
			if q {
				return Fig21NASSP([]int{4, 16}, quickWarm, quickMeasure)
			}
			return Fig21NASSP(nil, 0, 0)
		}),
		whole("fig22", func(bool) *Table { return Fig22SPUtil() }),
		fig23Spec(),
		whole("fig24", func(bool) *Table { return Fig24GUPSUtil() }),
		whole("fig25", func(bool) *Table { return Fig25StripingDegradation() }),
		whole("fig26", func(q bool) *Table {
			if q {
				return Fig26HotSpotStriping([]int{2, 16}, quickWarm, quickMeasure)
			}
			return Fig26HotSpotStriping(nil, 0, 0)
		}),
		whole("fig27", func(bool) *Table { return Fig27Xmesh() }),
		whole("fig28", func(q bool) *Table {
			if q {
				return Fig28Summary(quickWarm, quickMeasure)
			}
			return Fig28Summary(0, 0)
		}),
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
		whole("ablation", func(q bool) *Table {
			if q {
				return AblationLoadTest([]int{4, 30}, quickWarm, quickMeasure)
			}
			return AblationLoadTest(nil, 20*sim.Microsecond, 60*sim.Microsecond)
		}),
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

// Registry maps experiment ids (fig1, fig4, ..., tab1) to serial runners.
// It is derived from Specs; parallel execution goes through Specs directly
// (see internal/runner).
//
// Iteration-order audit (gslint detflow): consumers must never range
// over this map into anything ordered — emitted tables, progress lines,
// unit queues. Every current consumer does keyed lookups only
// (registry_test.go), and ordered walks of the catalog go through IDs(),
// which reproduces paper order from the Specs slice. Keep it that way:
// a map range here is exactly the -j1/-j8 divergence detflow exists to
// catch.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(catalog))
	for _, s := range catalog {
		reg[s.ID] = s.Runner()
	}
	return reg
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
	return s.Runner()(quick), nil
}
