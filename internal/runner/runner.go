// Package runner executes experiment suites concurrently, in-process.
//
// Every experiment — and every sweep point inside the sweep-style
// experiments — is an independent single-goroutine simulation (see
// experiments.Unit), so a full suite is embarrassingly parallel. Run is
// the in-process entry point to the repo's one scheduler, fleet.Run: it
// fans the requested experiments' units across a fixed set of slot
// goroutines, each simulation single-threaded and deterministic, and
// assembles every table from parts stored at their declared unit indices,
// so the rendered output is byte-identical for any worker count.
package runner

import (
	"context"

	"gs1280/internal/experiments"
	"gs1280/internal/fleet"
)

// Options configure a Run.
type Options struct {
	// Workers is the number of concurrent unit executors. Zero or
	// negative means runtime.GOMAXPROCS(0) — one worker per available
	// core.
	Workers int
	// Quick selects the reduced sweeps (see package experiments).
	Quick bool
	// OnUnit, if non-nil, is called after every completed unit. Calls are
	// serialized on a dedicated goroutine in unit-completion order, off
	// the result-bookkeeping lock — a slow progress sink delays reporting,
	// never the workers. All callbacks return before Run does.
	OnUnit func(UnitDone)
	// Lookup resolves an experiment id to its Spec. Nil means
	// experiments.SpecByID — the paper registry. Tests and the benchmark
	// inject synthetic or instrumented suites here.
	Lookup func(id string) (experiments.Spec, bool)
}

// UnitDone describes one completed unit for progress reporting.
type UnitDone = fleet.UnitDone

// Result is one experiment's outcome. Results are returned in request
// order regardless of completion order.
type Result = fleet.Result

// Run executes the experiments named by ids, fanning their units across
// opts.Workers goroutines, and returns one Result per id in order.
//
// Unknown ids are reported in the corresponding Result.Err; they do not
// abort the rest of the suite. A unit panic is contained and becomes its
// experiment's Result.Err. Cancelling ctx starts no further unit (units
// already executing run to completion — a simulation is not
// interruptible), marks unfinished experiments with the context's error,
// and returns that error alongside the completed results.
func Run(ctx context.Context, ids []string, opts Options) ([]Result, error) {
	return fleet.Run(ctx, ids, fleet.Options{
		Workers: opts.Workers,
		Quick:   opts.Quick,
		Lookup:  opts.Lookup,
		OnUnit:  opts.OnUnit,
	})
}
