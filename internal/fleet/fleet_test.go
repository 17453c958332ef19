package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gs1280/internal/experiments"
)

// synthSpec builds a cheap deterministic n-unit sweep for fleet tests:
// unit i contributes one row derived from an LCG mix of (id, i), so any
// lost, duplicated, reordered or re-executed-differently unit corrupts
// the rendered bytes.
func synthSpec(id string, n int) experiments.Spec {
	return experiments.Spec{
		ID: id,
		Units: func(bool) []experiments.Unit {
			units := make([]experiments.Unit, n)
			for i := range units {
				i := i
				units[i] = experiments.Unit{
					Name: fmt.Sprintf("%s[%d]", id, i),
					Run: func(*experiments.Env) experiments.Part {
						x := uint64(len(id))*0x9e3779b97f4a7c15 + uint64(i)
						for k := 0; k < 8; k++ {
							x = x*6364136223846793005 + 1442695040888963407
						}
						return experiments.Part{
							Rows:  [][]string{{fmt.Sprintf("%d", i), fmt.Sprintf("%x", x)}},
							Notes: []string{fmt.Sprintf("%s unit %d", id, i)},
						}
					},
				}
			}
			return units
		},
		Assemble: func(_ bool, parts []experiments.Part) *experiments.Table {
			t := &experiments.Table{ID: id, Title: "synthetic " + id, Header: []string{"unit", "mix"}}
			return assembleParts(t, parts)
		},
	}
}

func assembleParts(t *experiments.Table, parts []experiments.Part) *experiments.Table {
	for _, p := range parts {
		t.Rows = append(t.Rows, p.Rows...)
		t.Notes = append(t.Notes, p.Notes...)
	}
	return t
}

// counted wraps spec so that every unit body that runs adds one to n.
func counted(n *atomic.Int32, spec experiments.Spec) experiments.Spec {
	units := spec.Units
	spec.Units = func(quick bool) []experiments.Unit {
		us := units(quick)
		for i := range us {
			run := us[i].Run
			us[i].Run = func(env *experiments.Env) experiments.Part {
				n.Add(1)
				return run(env)
			}
		}
		return us
	}
	return spec
}

// sleepSpec is a one-unit experiment whose unit takes d of wall-clock.
func sleepSpec(id string, d time.Duration) experiments.Spec {
	return experiments.Spec{
		ID: id,
		Units: func(bool) []experiments.Unit {
			return []experiments.Unit{{Name: id, Run: func(*experiments.Env) experiments.Part {
				time.Sleep(d)
				return experiments.Part{Rows: [][]string{{id}}}
			}}}
		},
		Assemble: func(_ bool, parts []experiments.Part) *experiments.Table {
			return assembleParts(&experiments.Table{ID: id}, parts)
		},
	}
}

func synthLookup(specs ...experiments.Spec) Lookup {
	return func(id string) (experiments.Spec, bool) {
		for _, s := range specs {
			if s.ID == id {
				return s, true
			}
		}
		return experiments.Spec{}, false
	}
}

type namedTransport struct {
	name string
	tr   Transport
}

// healthy lists the two failure-free ways to run units: in-process (a nil
// Transport) and through in-memory workers that inject no faults. Each
// call builds fresh transports, since a ChaosTransport counts executions.
func healthy(lookup Lookup) []namedTransport {
	return []namedTransport{
		{"in-process", nil},
		{"healthy-chaos", NewChaosTransport(ChaosOptions{Lookup: lookup})},
	}
}

// renderResults flattens results to the bytes gsbench would print; any
// per-experiment error fails the test.
func renderResults(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Table.String())
	}
	return b.String()
}

// serialOracle renders the suite with no scheduler at all — each spec's
// serial Runner, in id order — the byte-identity reference every slot
// count and transport must match.
func serialOracle(t *testing.T, ids []string, lookup Lookup) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		spec, ok := lookup(id)
		if !ok {
			t.Fatalf("oracle: unknown id %q", id)
		}
		b.WriteString(spec.Runner()(false).String())
	}
	return b.String()
}

// TestLocalFleetMatchesSerialRunner pins the healthy-path determinism
// contract on a synthetic suite across slot counts, including more slots
// than units, in-process and through healthy workers.
func TestLocalFleetMatchesSerialRunner(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 7), synthSpec("beta", 1), synthSpec("gamma", 13))
	ids := []string{"alpha", "beta", "gamma"}
	want := serialOracle(t, ids, lookup)
	for _, workers := range []int{1, 3, 32} {
		for _, h := range healthy(lookup) {
			results, err := Run(context.Background(), ids, Options{
				Workers:   workers,
				Transport: h.tr,
				Lookup:    lookup,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", h.name, workers, err)
			}
			if got := renderResults(t, results); got != want {
				t.Errorf("%s workers=%d: output differs from the serial oracle:\n%s\nvs\n%s", h.name, workers, got, want)
			}
		}
	}
}

// TestFleetGoldenFixtures replays real paper experiments in-process and
// through healthy workers (whose parts cross the EncodePart codec) and
// compares against the same committed golden CSVs the runner is pinned
// to: neither path may perturb a single byte.
func TestFleetGoldenFixtures(t *testing.T) {
	ids := []string{"fig12", "fig15", "satur-uniform"}
	for _, workers := range []int{1, 8} {
		for _, h := range healthy(nil) {
			results, err := Run(context.Background(), ids, Options{
				Workers:   workers,
				Quick:     true,
				Transport: h.tr,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", h.name, workers, err)
			}
			compareGoldens(t, results, fmt.Sprintf("%s workers=%d", h.name, workers))
		}
	}
}

func compareGoldens(t *testing.T, results []Result, mode string) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s %s: %v", mode, r.ID, r.Err)
		}
		want, err := os.ReadFile(filepath.Join("..", "runner", "testdata", r.ID+".quick.csv"))
		if err != nil {
			t.Fatalf("missing fixture: %v", err)
		}
		if got := r.Table.CSV(); got != string(want) {
			t.Errorf("%s %s: CSV differs from committed fixture\ngot:\n%s\nwant:\n%s", mode, r.ID, got, want)
		}
	}
}

// TestFleetUnknownID mirrors the runner contract: unknown ids error
// without aborting the suite.
func TestFleetUnknownID(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 3))
	results, err := Run(context.Background(), []string{"nope", "alpha"}, Options{
		Workers: 2,
		Lookup:  lookup,
	})
	if err != nil {
		t.Fatalf("unknown id should not fail the run: %v", err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "nope") {
		t.Errorf("want unknown-id error naming %q, got %v", "nope", results[0].Err)
	}
	if results[1].Err != nil || results[1].Table == nil {
		t.Errorf("known experiment should still run: %+v", results[1])
	}
}

// TestFleetContainsUnitPanic: a unit that panics in a worker must come
// back as that experiment's error — with unit name and stack — without
// retry loops and without disturbing sibling experiments.
func TestFleetContainsUnitPanic(t *testing.T) {
	bad := experiments.Spec{
		ID: "bad",
		Units: func(bool) []experiments.Unit {
			return []experiments.Unit{
				{Name: "bad[0]", Run: func(*experiments.Env) experiments.Part { return experiments.Part{Rows: [][]string{{"ok"}}} }},
				{Name: "bad[1]", Run: func(*experiments.Env) experiments.Part { panic("kaboom") }},
			}
		},
		Assemble: func(_ bool, parts []experiments.Part) *experiments.Table {
			return assembleParts(&experiments.Table{ID: "bad"}, parts)
		},
	}
	lookup := synthLookup(bad, synthSpec("alpha", 5))
	tr := NewChaosTransport(ChaosOptions{Lookup: lookup}) // zero probabilities: healthy, but counts executions
	results, err := Run(context.Background(), []string{"bad", "alpha"}, Options{
		Workers:   2,
		Transport: tr,
		Lookup:    lookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Table != nil {
		t.Fatalf("panicking experiment should error without a table: %+v", results[0])
	}
	for _, want := range []string{"bad[1]", "panicked", "kaboom"} {
		if !strings.Contains(results[0].Err.Error(), want) {
			t.Errorf("panic error %q missing %q", results[0].Err, want)
		}
	}
	if results[1].Err != nil || results[1].Table == nil {
		t.Fatalf("sibling experiment should finish: %+v", results[1])
	}
	if n := tr.Executions()["bad[1]"]; n != 0 {
		t.Errorf("panicking unit recorded %d successful executions, want 0", n)
	}
}

// TestFleetDegradesToSingleSurvivor: with every slot but one unable to
// ever spawn a worker, the run must still complete — on the lone
// survivor — byte-identically.
func TestFleetDegradesToSingleSurvivor(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 9), synthSpec("beta", 4))
	ids := []string{"alpha", "beta"}
	want := serialOracle(t, ids, lookup)
	tr := &singleSurvivorTransport{inner: NewChaosTransport(ChaosOptions{Lookup: lookup})}
	results, err := Run(context.Background(), ids, Options{
		Workers:          4,
		Transport:        tr,
		Lookup:           lookup,
		MaxSpawnAttempts: 2,
		SpawnBackoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResults(t, results); got != want {
		t.Errorf("degraded fleet output differs from serial:\n%s\nvs\n%s", got, want)
	}
}

// singleSurvivorTransport fails every spawn except on slot 0.
type singleSurvivorTransport struct {
	inner Transport
}

func (t *singleSurvivorTransport) Spawn(ctx context.Context, slot int) (Worker, error) {
	if slot != 0 {
		return nil, fmt.Errorf("slot %d has no machine", slot)
	}
	return t.inner.Spawn(ctx, slot)
}

// TestFleetAllSlotsRetired: when no slot can ever spawn, the run reports
// failure rather than hanging, and every experiment carries an error.
func TestFleetAllSlotsRetired(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 3))
	tr := &neverSpawnTransport{}
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = Run(context.Background(), []string{"alpha"}, Options{
			Workers:          2,
			Transport:        tr,
			Lookup:           lookup,
			MaxSpawnAttempts: 2,
			SpawnBackoff:     time.Millisecond,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet with no spawnable workers hung instead of failing")
	}
	if err == nil {
		t.Fatal("want a fleet-collapse error, got nil")
	}
	if results[0].Err == nil || results[0].Table != nil {
		t.Errorf("experiment should report failure: %+v", results[0])
	}
}

type neverSpawnTransport struct{}

func (*neverSpawnTransport) Spawn(context.Context, int) (Worker, error) {
	return nil, fmt.Errorf("no machines anywhere")
}

// TestFleetProgressOrdering: fleet progress events arrive in completion
// order with suite-wide Done/Total, all delivered before Run returns.
func TestFleetProgressOrdering(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 12))
	var events []UnitDone
	results, err := Run(context.Background(), []string{"alpha"}, Options{
		Workers: 3,
		Lookup:  lookup,
		OnUnit:  func(ev UnitDone) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if len(events) != 12 {
		t.Fatalf("got %d progress events, want 12", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 12 {
			t.Errorf("event %d: done/total = %d/%d, want %d/12", i, ev.Done, ev.Total, i+1)
		}
		if ev.Experiment != "alpha" || !strings.HasPrefix(ev.Unit, "alpha[") {
			t.Errorf("event %d: unexpected labels %q %q", i, ev.Experiment, ev.Unit)
		}
	}
}

// TestFleetCancellation: a cancelled context stops the fleet promptly,
// starts no unit at all, and marks unfinished experiments with the
// context error — in-process and through workers alike. Go picks at
// random among ready select cases, so a slot that only selected between
// the job queue and ctx.Done would start some units anyway.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bodies atomic.Int32
	lookup := synthLookup(counted(&bodies, synthSpec("alpha", 16)))
	for _, h := range healthy(lookup) {
		start := time.Now()
		results, err := Run(ctx, []string{"alpha"}, Options{
			Workers:   8,
			Transport: h.tr,
			Lookup:    lookup,
		})
		if err != context.Canceled {
			t.Fatalf("%s: want context.Canceled, got %v", h.name, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("%s: cancelled fleet run took %v", h.name, elapsed)
		}
		if results[0].Err == nil {
			t.Errorf("%s: unfinished experiment should carry an error", h.name)
		}
		if n := bodies.Swap(0); n != 0 {
			t.Errorf("%s: %d unit bodies ran after cancellation, want 0", h.name, n)
		}
	}
}

// TestInProcessRejectsUnitTimeout: an in-process unit cannot be killed,
// so a deadline without a Transport is refused up front instead of being
// silently ignored.
func TestInProcessRejectsUnitTimeout(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 2))
	_, err := Run(context.Background(), []string{"alpha"}, Options{Lookup: lookup, UnitTimeout: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "UnitTimeout") {
		t.Fatalf("want an error naming UnitTimeout, got %v", err)
	}
}

// TestFleetElapsedEndsAtLastUnit: an experiment's Elapsed stops when its
// last unit is accounted for, not when the whole suite ends. On one slot,
// fast runs first and must not be charged for slow's unit.
func TestFleetElapsedEndsAtLastUnit(t *testing.T) {
	lookup := synthLookup(sleepSpec("fast", 10*time.Millisecond), sleepSpec("slow", 300*time.Millisecond))
	for _, h := range healthy(lookup) {
		results, err := Run(context.Background(), []string{"fast", "slow"}, Options{
			Workers:   1,
			Transport: h.tr,
			Lookup:    lookup,
		})
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		fast, slow := results[0], results[1]
		if fast.Elapsed <= 0 || fast.Elapsed >= slow.Work {
			t.Errorf("%s: fast.Elapsed = %v, want in (0, %v), slow's unit time", h.name, fast.Elapsed, slow.Work)
		}
	}
}
