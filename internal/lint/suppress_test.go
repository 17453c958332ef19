package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSuppressions parses src as one file and returns its directives.
func parseSuppressions(t *testing.T, src string) []suppression {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "supp.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return collectSuppressions(fset, f)
}

// passFor builds a Pass whose program contains just src, for driving
// suppressedAt directly.
func passFor(t *testing.T, src string) *Pass {
	t.Helper()
	prog := NewProgram()
	f, err := parser.ParseFile(prog.Fset, "supp.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog.files["supp.go"] = f
	return &Pass{Analyzer: DetFlow, Prog: prog, Fset: prog.Fset}
}

func covered(t *testing.T, src string, line int, directive string) bool {
	t.Helper()
	p := passFor(t, src)
	return p.suppressedAt(token.Position{Filename: "supp.go", Line: line}, directive)
}

const suppSrc = `package s

func f() {
	_ = 1 //lint:unordered-ok trailing form
	//lint:wallclock-ok preceding form
	_ = 2
	//lint:nondet-ok
	_ = 3
	//lint:alloc-ok
	_ = 4
}
`

func TestSuppressionForms(t *testing.T) {
	// Trailing form covers its own line.
	if !covered(t, suppSrc, 4, DirUnorderedOK) {
		t.Error("trailing directive must cover its own line")
	}
	// Preceding form covers the next line only.
	if !covered(t, suppSrc, 6, DirWallclockOK) {
		t.Error("preceding directive must cover the next line")
	}
	if covered(t, suppSrc, 7, DirWallclockOK) {
		t.Error("a directive must not reach two lines down")
	}
	// A directive never suppresses a different directive's findings.
	if covered(t, suppSrc, 4, DirWallclockOK) {
		t.Error("directives must not cross-suppress")
	}
}

func TestSuppressionReasonMandatory(t *testing.T) {
	// Bare directive: parsed, but suppresses nothing.
	if covered(t, suppSrc, 8, DirNondetOK) {
		t.Error("a reasonless directive must not suppress")
	}
	// Whitespace-only reason is still no reason.
	if covered(t, suppSrc, 10, DirAllocOK) {
		t.Error("a whitespace-only reason must not suppress")
	}
}

func TestSuppressionLastLine(t *testing.T) {
	// A preceding-form directive on the file's last code line points past
	// EOF; it must parse cleanly and simply cover nothing.
	src := "package s\n\nvar x = 1 //lint:unordered-ok last line, trailing\n"
	supps := parseSuppressions(t, src)
	if len(supps) != 1 || supps[0].line != 3 || supps[0].reason == "" {
		t.Fatalf("last-line directive mangled: %+v", supps)
	}
	if !covered(t, src, 3, DirUnorderedOK) {
		t.Error("last-line trailing directive must cover its line")
	}
	if covered(t, src, 4, DirUnorderedOK) {
		// Line 4 is past EOF; coverage there is harmless but asserting it
		// documents the two-line window explicitly.
		t.Log("directive also covers the (nonexistent) next line by design")
	}
}

func TestSuppressionCRLF(t *testing.T) {
	// CRLF line endings: go/scanner strips the \r from line comments, so
	// the reason must come out clean, not "reason\r".
	src := strings.ReplaceAll(`package s

func f() {
	_ = 1 //lint:unordered-ok crlf reason
	//lint:wallclock-ok
	_ = 2
}
`, "\n", "\r\n")
	supps := parseSuppressions(t, src)
	if len(supps) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(supps), supps)
	}
	if supps[0].reason != "crlf reason" {
		t.Errorf("CRLF reason mangled: %q", supps[0].reason)
	}
	if supps[1].reason != "" {
		t.Errorf("bare CRLF directive must have empty reason, got %q", supps[1].reason)
	}
	if !covered(t, src, 4, DirUnorderedOK) {
		t.Error("CRLF trailing directive must still suppress")
	}
	if covered(t, src, 6, DirWallclockOK) {
		t.Error("bare CRLF directive must not suppress")
	}
}

func TestSuppressionDirectiveNameExact(t *testing.T) {
	// "unordered-okay" is not "unordered-ok": prefixes must not match.
	src := "package s\n\nvar x = 1 //lint:unordered-okay close but wrong\n"
	if covered(t, src, 3, DirUnorderedOK) {
		t.Error("directive names must match exactly, not by prefix")
	}
}

func TestSuppressionInsideBlockOfComments(t *testing.T) {
	// A directive buried in a comment block covers the line right after
	// the directive's own line — which is another comment — not the code
	// below the block. Only the block's final line reaches the code.
	src := `package s

func f() {
	//lint:unordered-ok buried in a block
	// more prose continuing the block
	_ = 1
}
`
	if covered(t, src, 6, DirUnorderedOK) {
		t.Error("a directive separated from the code by another comment line must not cover it")
	}
}
