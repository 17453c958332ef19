package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"gs1280/internal/sim"
	"gs1280/internal/traffic"
)

// forEachSaturUniformPoint calls check with satur-uniform's point and its
// result at every quick rate on both routings: the baseline the open-loop
// families' zero-knob identities are pinned against, on whole
// traffic.Results rather than formatted cells.
func forEachSaturUniformPoint(t *testing.T, check func(vi, ri int, at string, base openPoint, want traffic.Result)) {
	t.Helper()
	for vi, v := range routings.list {
		for ri, rate := range saturQuickRates {
			base := saturUniform.point(true, 0, vi, ri)
			check(vi, ri, fmt.Sprintf("[%s,r=%g]", v.name, rate), base, base.run(nil, quickWarm, quickMeasure))
		}
	}
}

// TestDegradedHealthyRowsMatchSaturUniform pins degraded-satur's level-0
// points to satur-uniform's exact result: with no failed cable the fault
// knob schedules no event.
func TestDegradedHealthyRowsMatchSaturUniform(t *testing.T) {
	forEachSaturUniformPoint(t, func(vi, ri int, at string, _ openPoint, want traffic.Result) {
		if got := degradedSatur.point(true, 0, vi, ri).run(nil, quickWarm, quickMeasure); !reflect.DeepEqual(got, want) {
			t.Errorf("degraded-satur f=0 %s diverges from satur-uniform:\n got %+v\nwant %+v", at, got, want)
		}
	})
}

// TestFlakyHealthyRowsMatchSaturUniform pins flaky-satur's ber=0 points,
// and a quarantine policy on an error-free fabric, to satur-uniform's exact
// result: at probability zero the reliable-link layer is never installed,
// and without errors no cable is ever quarantined.
func TestFlakyHealthyRowsMatchSaturUniform(t *testing.T) {
	forEachSaturUniformPoint(t, func(vi, ri int, at string, base openPoint, want traffic.Result) {
		quarantine := base
		quarantine.quarThreshold, quarantine.quarProbation = 8, 5*sim.Microsecond
		for _, c := range []struct {
			name string
			p    openPoint
		}{
			{"flaky-satur ber=0", flakySatur.point(true, 0, vi, ri)},
			{"quarantine without errors", quarantine},
		} {
			if got := c.p.run(nil, quickWarm, quickMeasure); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s diverges from satur-uniform:\n got %+v\nwant %+v", c.name, at, got, want)
			}
		}
	})
}

// TestTailFifoRowsMatchSaturUniform pins the criticality mix under FIFO
// arbitration: it only retags packets, so it moves nothing but the
// per-criticality latency split. On the adaptive routing the point is
// tail-satur's own fifo row.
func TestTailFifoRowsMatchSaturUniform(t *testing.T) {
	forEachSaturUniformPoint(t, func(vi, ri int, at string, base openPoint, want traffic.Result) {
		mixed := base
		mixed.bgFrac, mixed.ctlFrac = tailBgFrac, tailCtlFrac
		if vi == 0 {
			mixed = tailSatur.point(true, 0, 0, ri)
		}
		got := mixed.run(nil, quickWarm, quickMeasure)
		if got.BgLat == want.BgLat {
			t.Errorf("tail mix %s injected no background packets", at)
		}
		got.DemandLat, got.BgLat = want.DemandLat, want.BgLat
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tail mix %s moved more than the class split:\n got %+v\nwant %+v", at, got, want)
		}
	})
}

// dirtyingUnit runs one unit of an experiment family on a pooled engine.
type dirtyingUnit struct {
	name string
	run  func(*Env)
}

// checkEngineReuse is the engine-pooling regression guard: a satur-uniform
// point run on a worker's reused engine must replay bit for bit after each
// dirtying unit has run on that engine. Network counters, link stats,
// reliable-link state and adaptive occupancy all live on the per-unit
// network or machine, and Engine.Reset restores the clock and sequence
// stream, so nothing may carry over. The Env has no memo, which would
// serve every rerun without simulating it; each rerun must execute as
// many events on the pooled engines as the first run did.
func checkEngineReuse(t *testing.T, units []dirtyingUnit) {
	t.Helper()
	base := openPoint{rate: 20, seed: 42}
	want := base.run(nil, quickWarm, quickMeasure)

	env := NewEnv(nil)
	env.BeginUnit()
	if got := base.run(env, quickWarm, quickMeasure); !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled first run diverges from a fresh engine:\n got %+v\nwant %+v", got, want)
	}
	events := env.events
	for _, u := range units {
		t.Run(u.name, func(t *testing.T) {
			env.BeginUnit()
			u.run(env)
			env.BeginUnit()
			before := env.events
			got := base.run(env, quickWarm, quickMeasure)
			if n := env.events - before; n != events {
				t.Fatalf("rerun after %s ran %d events on the pooled engines, want %d: it was not simulated", u.name, n, events)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reused engine leaked %s state:\n got %+v\nwant %+v", u.name, got, want)
			}
		})
	}
}

// TestEngineReuseNoCounterLeak dirties the pooled engine with link faults
// and reroutes, lossy links and a quarantining cable.
func TestEngineReuseNoCounterLeak(t *testing.T) {
	checkEngineReuse(t, []dirtyingUnit{
		{"degraded-satur", func(env *Env) { degradedSatur.point(true, 2, 0, 2).run(env, quickWarm, quickMeasure) }},
		{"degraded-map", func(env *Env) { degradedMapColumn(env, 0, 2) }},
		{"flaky-satur", func(env *Env) { flakySatur.point(true, 1, 0, 2).run(env, quickWarm, quickMeasure) }},
		{"flaky-quarantine", func(env *Env) { flakyQuarantine.point(true, 0, 2, 2).run(env, quickWarm, quickMeasure) }},
	})
}

// TestEngineReuseAfterTailUnits dirties the pooled engine with the tail
// family: criticality arbitration on a degraded fabric, and a full GS1280.
func TestEngineReuseAfterTailUnits(t *testing.T) {
	checkEngineReuse(t, []dirtyingUnit{
		{"tail-degraded", func(env *Env) { tailDegraded.point(true, 1, 1, 2).run(env, quickWarm, quickMeasure) }},
		{"tail-miss", func(env *Env) { tailMissPoint(env, 16, tailVariants[1], quickWarm, quickMeasure) }},
	})
}
