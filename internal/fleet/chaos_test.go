package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// chaosSuite is the synthetic suite the property sweeps run: 4
// experiments, 32 units, trivially cheap, with every unit's bytes unique
// so loss, duplication or reordering is visible in the rendered output.
func chaosSuite() ([]string, Lookup) {
	lookup := synthLookup(
		synthSpec("alpha", 9),
		synthSpec("beta", 1),
		synthSpec("gamma", 17),
		synthSpec("delta", 5),
	)
	return []string{"alpha", "beta", "gamma", "delta"}, lookup
}

// TestChaosFailureScheduleSweep is the property test of the robustness
// toolkit: across seeded schedules mixing worker crashes (work done,
// reply lost), hangs (recovered only by the unit deadline), corrupt
// frames, reply stalls and spawn failures, every run must (a) complete
// with no per-experiment errors, (b) render byte-identically to the
// serial -j1 oracle, (c) execute every unit at least once, and (d) stay
// within bounded retries — total executions can exceed the unit count by
// at most the injected-failure budget actually spent.
func TestChaosFailureScheduleSweep(t *testing.T) {
	ids, lookup := chaosSuite()
	want := serialOracle(t, ids, lookup)
	totalUnits := 32
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tr := NewChaosTransport(ChaosOptions{
				Lookup:      lookup,
				Seed:        seed,
				PCrash:      0.15,
				PHang:       0.05,
				PCorrupt:    0.10,
				PStall:      0.10,
				PSpawnFail:  0.20,
				MaxFailures: 8,
			})
			results, err := Run(context.Background(), ids, Options{
				Workers:   4,
				Transport: tr,
				Lookup:    lookup,
				// Attempt cap above the failure budget: no schedule can
				// poison a unit, so completion is guaranteed; the bound
				// is still asserted below.
				MaxUnitAttempts:  10,
				MaxSpawnAttempts: 3,
				SpawnBackoff:     time.Millisecond,
				UnitTimeout:      150 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("fleet error: %v", err)
			}
			if got := renderResults(t, results); got != want {
				t.Errorf("chaos output differs from serial oracle:\n%s\nvs\n%s", got, want)
			}
			execs := tr.Executions()
			total := 0
			for _, id := range ids {
				spec, _ := lookup(id)
				for i := range spec.Units(false) {
					key := fmt.Sprintf("%s[%d]", id, i)
					if execs[key] < 1 {
						t.Errorf("unit %s never executed (lost)", key)
					}
					total += execs[key]
				}
			}
			injected := tr.InjectedFailures()
			if total > totalUnits+int(injected) {
				t.Errorf("unbounded retries: %d executions for %d units with %d injected failures",
					total, totalUnits, injected)
			}
			spawned, crashes, hangs, corrupt := tr.Stats()
			t.Logf("seed %d: %d spawns, %d crashes, %d hangs, %d corrupt frames, %d injected failures, %d executions",
				seed, spawned, crashes, hangs, corrupt, injected, total)
		})
	}
}

// TestChaosAgainstGoldenFixtures runs real paper experiments through a
// faulty fleet and pins the output to the same committed golden CSVs the
// plain runner is pinned to: injected failures may cost retries, never
// bytes.
func TestChaosAgainstGoldenFixtures(t *testing.T) {
	ids := []string{"fig12", "satur-uniform"}
	tr := NewChaosTransport(ChaosOptions{
		Seed:        42,
		PCrash:      0.20,
		PCorrupt:    0.10,
		PSpawnFail:  0.15,
		MaxFailures: 6,
	})
	results, err := Run(context.Background(), ids, Options{
		Workers:          4,
		Quick:            true,
		Transport:        tr,
		MaxUnitAttempts:  10,
		MaxSpawnAttempts: 3,
		SpawnBackoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	compareGoldens(t, results, "chaos")
	if inj := tr.InjectedFailures(); inj == 0 {
		t.Log("schedule injected no failures for this seed; fixtures still pinned")
	}
}

// TestChaosInterruptedRunResumesFromJournal is the acceptance scenario:
// a chaotic run is killed partway (context cancel — the coordinator
// dying), then a second run resumes from the fsynced journal, executes
// only the missing units, and the final tables are byte-identical to an
// uninterrupted serial run.
func TestChaosInterruptedRunResumesFromJournal(t *testing.T) {
	ids, lookup := chaosSuite()
	want := serialOracle(t, ids, lookup)
	journal := filepath.Join(t.TempDir(), "run.jsonl")

	// Phase 1: chaotic run, coordinator killed after ~a third of the
	// units have been acknowledged.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := 0
	_, err := Run(ctx, ids, Options{
		Workers:          3,
		Transport:        NewChaosTransport(ChaosOptions{Lookup: lookup, Seed: 7, PCrash: 0.2, PCorrupt: 0.1, MaxFailures: 5}),
		Lookup:           lookup,
		JournalPath:      journal,
		MaxUnitAttempts:  10,
		MaxSpawnAttempts: 3,
		SpawnBackoff:     time.Millisecond,
		OnUnit: func(UnitDone) {
			killed++
			if killed == 11 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("phase 1: want context.Canceled, got %v", err)
	}

	// The journal is durable: reload it raw and remember which units the
	// interrupted run completed.
	_, records, _, err := loadJournal(journal)
	if err != nil {
		t.Fatalf("journal unreadable after interrupt: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("interrupted run journaled nothing")
	}
	completed := make(map[string]bool, len(records))
	for _, rec := range records {
		completed[fmt.Sprintf("%s[%d]", rec.Exp, rec.Unit)] = true
	}

	// Phase 2: resume under a different chaos schedule. Only missing
	// units may execute, and the output must match the oracle.
	tr2 := NewChaosTransport(ChaosOptions{Lookup: lookup, Seed: 99, PCrash: 0.15, PHang: 0.05, MaxFailures: 5})
	results, err := Run(context.Background(), ids, Options{
		Workers:          3,
		Transport:        tr2,
		Lookup:           lookup,
		JournalPath:      journal,
		ResumeFrom:       journal,
		MaxUnitAttempts:  10,
		MaxSpawnAttempts: 3,
		SpawnBackoff:     time.Millisecond,
		UnitTimeout:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := renderResults(t, results); got != want {
		t.Errorf("resumed output differs from uninterrupted serial run:\n%s\nvs\n%s", got, want)
	}
	for key := range tr2.Executions() {
		if completed[key] {
			t.Errorf("resume re-executed journaled unit %s", key)
		}
	}

	// Phase 3: resuming the now-complete journal executes nothing at all.
	tr3 := NewChaosTransport(ChaosOptions{Lookup: lookup, Seed: 1})
	results, err = Run(context.Background(), ids, Options{
		Workers:    2,
		Transport:  tr3,
		Lookup:     lookup,
		ResumeFrom: journal,
	})
	if err != nil {
		t.Fatalf("no-op resume: %v", err)
	}
	if got := renderResults(t, results); got != want {
		t.Errorf("no-op resume rendered different bytes")
	}
	if n := len(tr3.Executions()); n != 0 {
		t.Errorf("no-op resume executed %d units, want 0", n)
	}
}

// TestResumeRejectsDifferentSuite: a journal must not resume a run whose
// id list, quick flag or sweep shape differs — the suite hash catches it.
func TestResumeRejectsDifferentSuite(t *testing.T) {
	ids, lookup := chaosSuite()
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	_, err := Run(context.Background(), ids, Options{
		Workers:     2,
		Lookup:      lookup,
		JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wrong := range [][]string{
		{"alpha", "beta"},                   // fewer ids
		{"beta", "alpha", "gamma", "delta"}, // reordered
	} {
		_, err := Run(context.Background(), wrong, Options{
			Workers:    2,
			Lookup:     lookup,
			ResumeFrom: journal,
		})
		if err == nil {
			t.Errorf("resume with ids %v should be rejected", wrong)
		}
	}
	// Different unit shape under the same ids: also rejected.
	other := synthLookup(synthSpec("alpha", 10), synthSpec("beta", 1), synthSpec("gamma", 17), synthSpec("delta", 5))
	if _, err := Run(context.Background(), ids, Options{
		Workers:    2,
		Lookup:     other,
		ResumeFrom: journal,
	}); err == nil {
		t.Error("resume with a changed sweep shape should be rejected")
	}
}

// TestChaosHungWorkerRecoveredByDeadline isolates the hang path: a
// worker that sits on its unit forever is killed at the unit deadline
// and the unit completes elsewhere.
func TestChaosHungWorkerRecoveredByDeadline(t *testing.T) {
	lookup := synthLookup(synthSpec("alpha", 6))
	tr := NewChaosTransport(ChaosOptions{Lookup: lookup, Seed: 3, PHang: 0.5, MaxFailures: 3})
	start := time.Now()
	results, err := Run(context.Background(), []string{"alpha"}, Options{
		Workers:         2,
		Transport:       tr,
		Lookup:          lookup,
		MaxUnitAttempts: 8,
		UnitTimeout:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	_, _, hangs, _ := tr.Stats()
	if hangs == 0 {
		t.Skip("schedule injected no hangs for this seed") // keep the test honest if probabilities change
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hang recovery took %v", elapsed)
	}
	if got, want := renderResults(t, results), serialOracle(t, []string{"alpha"}, lookup); got != want {
		t.Errorf("post-hang output differs from serial oracle")
	}
}
