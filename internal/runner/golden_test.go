package runner

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gs1280/internal/experiments"
	"gs1280/internal/network"
)

// TestGoldenOutputsAcrossWorkerCounts is the end-to-end determinism and
// refactoring guard: the quick CSVs of a latency figure (fig12), a
// load-test sweep (fig15) and every open-loop experiment must be
// byte-identical to the committed fixtures — each generated before the
// refactor it guards — at both -j 1 and -j 8. A data-structure or
// scheduling change that alters any simulated outcome, however slightly,
// shows up here as a diff.
//
// Every experiment's quick table has a fixture here. To regenerate them
// all after an intentional model change:
//
//	go test ./internal/experiments -run TestRegistryAllQuick -update
//
// then explain the change in the commit.
func TestGoldenOutputsAcrossWorkerCounts(t *testing.T) {
	ids := []string{"fig12", "fig15", "fig16x17", "satur-uniform", "satur-transpose",
		"satur-hotspot", "degraded-satur", "degraded-map", "tail-satur", "tail-degraded",
		"tail-miss", "flaky-satur", "flaky-quarantine"}
	for _, workers := range []int{1, 8} {
		replayGoldens(t, ids, workers, nil, "")
	}
}

// TestGoldenOutputsUnderCritDifferential is the machine-checked reduction
// proof for criticality-aware arbitration: with the feature forced on but
// every packet flattened into a single class (demand or background), the
// crit+age arbiter degenerates to FIFO and the memory controllers' yield
// path to the plain one — so every single-class golden, including the
// fault-injecting degraded-satur and the error-injecting flaky-* sweeps
// (whose single-class retransmission traffic cannot tell the arbiters
// apart), must replay byte-identically at every worker count. The tail-*
// fixtures are excluded: their crit rows measure a genuinely mixed
// population, which is exactly what the differential mode flattens away.
// The mode reaches the units through the lookup: CritDifferential's specs
// set it on the Env of each unit they run.
func TestGoldenOutputsUnderCritDifferential(t *testing.T) {
	ids := []string{"fig12", "fig15", "fig16x17", "satur-uniform", "satur-transpose",
		"satur-hotspot", "degraded-satur", "degraded-map", "flaky-satur", "flaky-quarantine"}
	for _, forced := range []network.Criticality{network.CritDemand, network.CritBackground} {
		lookup := experiments.CritDifferential(forced)
		for _, workers := range []int{1, 8} {
			replayGoldens(t, ids, workers, lookup, "forced="+forced.String()+" ")
		}
	}
}

// replayGoldens runs ids at the given worker count through lookup (nil
// means the catalog) and diffs each quick CSV against its fixture.
func replayGoldens(t *testing.T, ids []string, workers int, lookup func(string) (experiments.Spec, bool), mode string) {
	t.Helper()
	results, err := Run(context.Background(), ids, Options{Workers: workers, Quick: true, Lookup: lookup})
	if err != nil {
		t.Fatalf("%sj=%d: %v", mode, workers, err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%sj=%d %s: %v", mode, workers, r.ID, r.Err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", r.ID+".quick.csv"))
		if err != nil {
			t.Fatalf("missing fixture: %v", err)
		}
		if got := r.Table.CSV(); got != string(want) {
			t.Errorf("%sj=%d %s: CSV differs from committed fixture\ngot:\n%s\nwant:\n%s",
				mode, workers, r.ID, got, want)
		}
	}
}
