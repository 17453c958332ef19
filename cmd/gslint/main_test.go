package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"gs1280/internal/lint"
)

func sampleDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Analyzer: "detflow",
			Pos:      token.Position{Filename: "internal/sim/engine.go", Line: 10, Column: 2},
			Message:  "range over map m",
		},
		{
			Analyzer: "concur",
			Pos:      token.Position{Filename: "internal/fleet/coordinator.go", Line: 30, Column: 5},
			Message:  "50% of accesses,\nunlocked: fix",
		},
	}
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := writeText(&b, sampleDiags()); err != nil {
		t.Fatal(err)
	}
	want := "internal/sim/engine.go:10:2: range over map m (detflow)\n" +
		"internal/fleet/coordinator.go:30:5: 50% of accesses,\nunlocked: fix (concur)\n"
	if b.String() != want {
		t.Errorf("text output:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := writeJSON(&b, sampleDiags()); err != nil {
		t.Fatal(err)
	}
	var got []jsonDiag
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2", len(got))
	}
	if got[0].File != "internal/sim/engine.go" || got[0].Line != 10 || got[0].Col != 2 || got[0].Analyzer != "detflow" {
		t.Errorf("first finding mangled: %+v", got[0])
	}
	if got[1].Message != "50% of accesses,\nunlocked: fix" {
		t.Errorf("message not preserved: %q", got[1].Message)
	}
}

func TestWriteJSONEmptyIsArray(t *testing.T) {
	var b strings.Builder
	if err := writeJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("empty run must emit [], got %q", b.String())
	}
}

func TestWriteGitHubEscapes(t *testing.T) {
	var b strings.Builder
	if err := writeGitHub(&b, sampleDiags()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("multi-line message leaked into %d output lines, want 2:\n%s", len(lines), b.String())
	}
	if lines[0] != "::error file=internal/sim/engine.go,line=10,col=2,title=gslint(detflow)::range over map m" {
		t.Errorf("annotation form: %q", lines[0])
	}
	if !strings.Contains(lines[1], "50%25 of accesses,%0Aunlocked") {
		t.Errorf("message %% and newline must be escaped: %q", lines[1])
	}
}
