package lint

import (
	"fmt"
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
	_ = 5 //lint:pool-ok waives this line's finding
	_ = 6
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
	// A trailing directive justifies its own line's finding only: a
	// second finding of the same kind on the next line needs its own.
	if !covered(t, suppSrc, 11, DirPoolOK) {
		t.Error("trailing directive must cover its own line")
	}
	if covered(t, suppSrc, 12, DirPoolOK) {
		t.Error("a trailing directive must not waive the violation on the next line")
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
	// A trailing directive on the file's last line must parse cleanly and
	// cover that line only, not the line past EOF.
	src := "package s\n\nvar x = 1 //lint:unordered-ok last line, trailing\n"
	supps := parseSuppressions(t, src)
	if len(supps) != 1 || supps[0].line != 3 || supps[0].reason == "" {
		t.Fatalf("last-line directive mangled: %+v", supps)
	}
	if !covered(t, src, 3, DirUnorderedOK) {
		t.Error("last-line trailing directive must cover its line")
	}
	if covered(t, src, 4, DirUnorderedOK) {
		t.Error("a trailing directive must not cover the line below it")
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

// suppressionLayouts place one directive (the %s) in a file, trailing code
// in several syntactic positions or alone on its line.
var suppressionLayouts = []struct {
	src   string
	alone bool
}{
	{"package s\n\nfunc f() {\n\t_ = 1 %s\n\t_ = 2\n}\n", false},
	{"package s\n\nfunc f() {\n\tif true { %s\n\t\t_ = 2\n\t}\n}\n", false},
	{"package s\n\nfunc f() {\n\tg(1, %s\n\t\t2)\n}\n\nfunc g(int, int) {}\n", false},
	{"package s\n\nfunc f() {\n\tswitch {\n\tcase true: %s\n\t\t_ = 2\n\t}\n}\n", false},
	{"package s\n\nfunc f() {\n\tx := 1 + %s\n\t\t2\n\t_ = x\n}\n", false},
	{"package s\n\nvar x = []int{ %s\n\t2,\n}\n", false},
	{"package s\n\ntype T struct { %s\n\tA int\n}\n", false},
	{"package s\n\nvar ( %s\n\ta = 1\n)\n", false},
	{"package s\n\nfunc f() {\n\tg(func() {\n\t}) %s\n\t_ = 2\n}\n\nfunc g(func()) {}\n", false},
	{"package s %s\n\nvar x = 1\n", false},
	{"package s\n\nfunc f() {\n\t%s\n\t_ = 2\n}\n", true},
	{"package s\n\n%s\nvar x = 1\n", true},
	{"package s\n\nvar x = []int{\n\t%s\n\t2,\n}\n", true},
	{"package s\n\nfunc f() {\n\t_ = 1 /* c */\n\t%s\n\t_ = 2\n}\n", true},
}

// FuzzSuppressions places one //lint: directive with a fuzzed name and
// reason in one of suppressionLayouts and checks the scanner against the
// documented rule: no input panics; the reason is the trimmed text after
// the directive name; a directive without a reason never suppresses; and
// a directive covers its own line, plus the next line only when it stands
// alone. Its seed corpus lives in testdata/fuzz.
func FuzzSuppressions(f *testing.F) {
	f.Fuzz(func(t *testing.T, layout uint8, name, reason string) {
		if strings.ContainsAny(name, " \r\n") || strings.ContainsAny(reason, "\r\n") {
			return // not one directive with this name: a space ends the name, a line end the comment
		}
		l := suppressionLayouts[int(layout)%len(suppressionLayouts)]
		src := fmt.Sprintf(l.src, "//lint:"+name+" "+reason)
		prog := NewProgram()
		file, err := parser.ParseFile(prog.Fset, "supp.go", src, parser.ParseComments)
		if err != nil {
			return // not Go source, e.g. a NUL byte or invalid UTF-8 in the comment
		}
		supps := collectSuppressions(prog.Fset, file)
		if len(supps) != 1 {
			t.Fatalf("%d directives in %q, want 1: %+v", len(supps), src, supps)
		}
		s := supps[0]
		if s.directive != name || s.reason != strings.TrimSpace(reason) {
			t.Fatalf("directive %q reason %q from %q, want %q and %q",
				s.directive, s.reason, src, name, strings.TrimSpace(reason))
		}
		if s.alone != l.alone {
			t.Fatalf("alone = %t for %q", s.alone, src)
		}
		prog.files["supp.go"] = file
		p := &Pass{Analyzer: DetFlow, Prog: prog, Fset: prog.Fset}
		for line := s.line - 1; line <= s.line+2; line++ {
			want := s.reason != "" && (line == s.line || l.alone && line == s.line+1)
			if got := p.suppressedAt(token.Position{Filename: "supp.go", Line: line}, name); got != want {
				t.Errorf("line %d covered = %t, want %t, directive on line %d of %q",
					line, got, want, s.line, src)
			}
		}
	})
}

// TestSuppressionLayoutsParse keeps every fuzz layout valid Go with its
// directive where the layout says, so FuzzSuppressions never skips one.
func TestSuppressionLayoutsParse(t *testing.T) {
	for i, l := range suppressionLayouts {
		src := fmt.Sprintf(l.src, "//lint:unordered-ok layout")
		supps := parseSuppressions(t, src)
		if len(supps) != 1 || supps[0].alone != l.alone || supps[0].reason != "layout" {
			t.Errorf("layout %d: %+v from %q", i, supps, src)
		}
	}
}
