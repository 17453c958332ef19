package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// checkFixture loads a fixture package (plus deps), runs one analyzer on
// it, and matches the diagnostics against the fixture's `// want "re"`
// comments, analysistest-style: every diagnostic must match a want on
// its (file, line), and every want must be consumed.
func checkFixture(t *testing.T, a *Analyzer, target string, deps ...string) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "src")
	prog, err := LoadFixture(root, append(deps, target)...)
	if err != nil {
		t.Fatalf("LoadFixture(%s): %v", target, err)
	}
	pkg := FixturePackage(prog, target)
	if pkg == nil {
		t.Fatalf("fixture package %q not loaded", target)
	}
	diags := RunOnPackage(prog, a, pkg)
	want := Expectations(prog)

	for _, d := range diags {
		pos := d.Pos
		pats := want[pos.Filename][pos.Line]
		matched := -1
		for i, pat := range pats {
			if ok, err := regexp.MatchString(pat, d.Message); err != nil {
				t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
			} else if ok {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %v", d)
			continue
		}
		want[pos.Filename][pos.Line] = append(pats[:matched], pats[matched+1:]...)
	}
	for file, lines := range want {
		for line, pats := range lines {
			for _, pat := range pats {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, pat)
			}
		}
	}
	return diags
}

func TestDetRangeFixture(t *testing.T) {
	diags := checkFixture(t, DetFlow, "detrange/sim")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestDetSourceFixture(t *testing.T) {
	diags := checkFixture(t, DetFlow, "detsource/network")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestNoAllocFixture(t *testing.T) {
	diags := checkFixture(t, NoAlloc, "noalloc")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestTimerArgFixture(t *testing.T) {
	diags := checkFixture(t, TimerArg, "timerarg", "sim")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestPoolSafeFixture(t *testing.T) {
	diags := checkFixture(t, PoolSafe, "poolsafe")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestDetFlowFixture(t *testing.T) {
	diags := checkFixture(t, DetFlow, "detflow/experiments", "detflow/helper", "detflow/boot")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestConcurFixture(t *testing.T) {
	diags := checkFixture(t, Concur, "concur")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate at least one caught violation")
	}
}

func TestConcurDeterministicPackageFixture(t *testing.T) {
	diags := checkFixture(t, Concur, "concur/machine")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; it must demonstrate the deterministic-package goroutine rule")
	}
}

// TestGslintRepoClean is the ratchet: the real module must produce zero
// findings, so any new violation (or new unjustified suppression) fails
// `go test ./...` as well as the CI lint job.
func TestGslintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := RunAnalyzers(prog, Analyzers())
	for _, d := range diags {
		t.Errorf("%v", d)
	}
}
