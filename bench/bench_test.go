package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadPrefixesMatchPins runs each simulation workload for its
// first steps and checks their digests against the seed-1 pins: a pass
// is deterministic, so a short pass is a prefix of the pinned one.
func TestWorkloadPrefixesMatchPins(t *testing.T) {
	for _, c := range []struct {
		name  string
		steps int
	}{{"gups-64p", 2}, {"triad-16p", 2}, {"fabric-uniform", 1}, {"fabric-flaky", 1}} {
		t.Run(c.name, func(t *testing.T) {
			w, _ := workloadByName(c.name)
			pin, err := loadPin(c.name, 1)
			if err != nil || pin == nil {
				t.Fatalf("no seed-1 pin: %v", err)
			}
			m := newMeter(nil)
			if err := w.pass(m, 1, c.steps); err != nil {
				t.Fatal(err)
			}
			if len(m.pass) != c.steps {
				t.Fatalf("%d entries, want %d", len(m.pass), c.steps)
			}
			for i, e := range m.pass {
				if e != pin[i] {
					t.Errorf("entry %d = %v, pin %v", i, e, pin[i])
				}
			}
		})
	}
}

// TestSuiteSubsetMatchesPin runs a few cheap experiments through the
// suite pass and checks their CSV hashes against the suite pin.
func TestSuiteSubsetMatchesPin(t *testing.T) {
	pin, err := loadPin("suite-quick", 1)
	if err != nil || pin == nil {
		t.Fatalf("no suite pin: %v", err)
	}
	want := map[string]string{}
	for _, e := range pin {
		want[e.name] = e.digest
	}
	m := newMeter(nil)
	if err := suitePass(m, []string{"fig1", "fig13", "tab1", "degraded-map"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.pass {
		if want[e.name] != e.digest {
			t.Errorf("%s = %s, pin %s", e.name, e.digest, want[e.name])
		}
	}
	if m.layer["runner.units"] < 4 || len(m.steps[0]) != int(m.layer["runner.units"]) || m.complete != 1 {
		t.Errorf("%d steps for %v units, %d complete passes", len(m.steps[0]), m.layer["runner.units"], m.complete)
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	a := []entry{{"s0", "aa"}, {"s1", "bb"}, {"s2", "cc"}}
	ck := &checker{pin: a}
	ck.pass(a, true)
	ck.pass([]entry{{"s0", "aa"}, {"s1", "XX"}, {"s2", "cc"}}, true)
	if ck.attempted != 6 || ck.failed != 1 {
		t.Errorf("attempted %d failed %d, want 6 and 1", ck.attempted, ck.failed)
	}
	ck = &checker{pin: a}
	ck.pass([]entry{{"s0", "aa"}, {"s1", "bb"}, {"s2", "XX"}}, true)
	if ck.failed != 1 {
		t.Errorf("pin mismatch counted %d times, want 1", ck.failed)
	}
	ck = &checker{pin: a}
	ck.pass(a[:1], true)
	if ck.attempted != 3 || ck.failed != 2 {
		t.Errorf("short complete pass: attempted %d failed %d, want 3 and 2", ck.attempted, ck.failed)
	}
	ck = &checker{pin: a}
	ck.pass(a, true)
	ck.pass([]entry{{"s1", "bb"}, {"s2", "XX"}}, false)
	if ck.attempted != 5 || ck.failed != 1 {
		t.Errorf("cut pass: attempted %d failed %d, want 5 and 1", ck.attempted, ck.failed)
	}
}

// TestLaterPassStopsAtDeadline runs a workload whose first pass takes a
// fraction of the budget and whose later passes take several budgets: the
// first pass completes, the second stops at the deadline, and its steps
// still count.
func TestLaterPassStopsAtDeadline(t *testing.T) {
	w := workloadDef{name: "spin", steps: 30, pass: func(m *meter, _ uint64, n int) error {
		d := time.Millisecond
		if m.complete > 0 {
			d = 20 * time.Millisecond
		}
		m.beginPass("spin")
		i := 0
		for ; i < n && !m.expired(); i++ {
			m.step("spin", func() uint64 {
				for t0 := time.Now(); time.Since(t0) < d; {
				}
				return 1
			})
			m.record(fmt.Sprint(i), "d")
		}
		m.endPass(i == n)
		return nil
	}}
	m, ck := newMeter(nil), &checker{}
	runPasses(w, m, 1, 200*time.Millisecond, ck)
	if m.complete != 1 || len(m.steps) != 2 || len(m.steps[1]) >= w.steps {
		t.Fatalf("%d passes, %d complete, last has %d steps; want the last one cut short",
			len(m.steps), m.complete, len(m.steps[len(m.steps)-1]))
	}
	if ck.failed != 0 || m.passOps != float64(w.steps) {
		t.Errorf("failed %d, ops per pass %v; want 0 and %d", ck.failed, m.passOps, w.steps)
	}
	if c := m.passCost(); !(c > 0) || c != sumOf(m.typicalSteps()) {
		t.Errorf("pass cost %v, want the sum of the typical steps", c)
	}
}

// runShort runs the named workload in-process, cut to its first steps, and
// decodes its result line. Seed 3 is not pinned, so the short passes are
// checked against each other only.
func runShort(t *testing.T, name string, steps int, o options) (result, string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.steps = steps
	o.seed = 3
	var out, errOut bytes.Buffer
	code := runWorkload(w, o, &out, &errOut)
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("exit %d, result line not JSON: %v\n%s", code, err, errOut.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, r, errOut.String())
	}
	return r, errOut.String()
}

func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	r, log := runShort(t, "fabric-uniform", 3, options{seconds: 1})
	if len(r.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	if !strings.Contains(log, "fail_frac 0,") {
		t.Errorf("fail_frac not reported as 0:\n%s", log)
	}
}

func TestTracedRunFoldsProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof not available")
	}
	dir := t.TempDir()
	r, log := runShort(t, "fabric-uniform", 3, options{seconds: 2, trace: 1, traceDir: dir})
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	sum := 0.0
	for _, l := range profileLayers {
		sum += r.Metrics[l+".self_frac"].Value
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("self_frac values sum to %v, want 1 ± 0.02", sum)
	}
	for _, name := range []string{"network.packets", "sim.events", "network.build_ms", "sim.churn_ns"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
		}
	}
	for _, f := range []string{"cpu.pprof", "layers.txt", "spans.json"} {
		if _, err := os.Stat(filepath.Join(dir, "fabric-uniform", f)); err != nil {
			t.Error(err)
		}
	}
	if !strings.Contains(log, "overhead") {
		t.Errorf("tracing overhead not reported:\n%s", log)
	}
}

func TestPanicCountsAsFailure(t *testing.T) {
	w := workloadDef{name: "panics", steps: 1, pass: func(*meter, uint64, int) error { panic("boom") }}
	var out, errOut bytes.Buffer
	code := runWorkload(w, options{seed: 1, seconds: 1}, &out, &errOut)
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("no result line: %v\n%s", err, errOut.String())
	}
	if code == 0 || r.Correct || r.Failed != 1 || r.Attempted != 1 {
		t.Errorf("exit %d, result %+v; want a failed run", code, r)
	}
	if !strings.Contains(errOut.String(), "panic: boom") {
		t.Errorf("panic not reported:\n%s", errOut.String())
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want a failure and no result", code, out.String())
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gs1280/internal/sim.(*Engine).Step":                         "sim",
		"gs1280/internal/network.(*link).pump (inline)":              "network",
		"gs1280/internal/coherence.(*System).Access.func1":           "coherence",
		"gs1280/internal/topology.NewTorus":                          "topology",
		"gs1280/internal/experiments.sweepUnits[go.shape.struct {}]": "other",
		"gs1280/internal/workload.(*GUPS).Next":                      "other",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":               "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                     "runtime",
		"main.(*meter).timed":                                        "other",
		"sort.Float64s":                                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := `File: bench
Type: cpu
Showing nodes accounting for 1500ms, 100% of 1500ms total
      flat  flat%   sum%        cum   cum%
     800ms 53.33% 53.33%      900ms 60.00%  gs1280/internal/sim.(*Engine).Step
     400ms 26.67% 80.00%      400ms 26.67%  gs1280/internal/network.(*link).pump (inline)
     200ms 13.33% 93.33%      200ms 13.33%  runtime.mallocgc
     100ms  6.67%   100%     1500ms   100%  main.main
`
	self, total, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1.5 || self["sim"] != 0.8 || self["network"] != 0.4 || self["runtime"] != 0.2 || self["other"] != 0.1 {
		t.Errorf("total %v, self %v", total, self)
	}
	if _, _, err := parseTop("no rows here"); err == nil {
		t.Error("output without rows should be an error")
	}
}

func TestAssignLanesSeparatesOverlappingSiblings(t *testing.T) {
	spans := []span{
		{name: "suite", start: 0, dur: 100, parent: -1},
		{name: "u1", start: 0, dur: 50, parent: 0},
		{name: "u2", start: 10, dur: 20, parent: 0},
		{name: "u3", start: 60, dur: 10, parent: 0},
	}
	lanes := assignLanes(spans)
	if lanes[1] == lanes[2] || lanes[3] != lanes[0] {
		t.Errorf("lanes %v: overlapping units must differ, a later one reuses the free lane", lanes)
	}
}
