package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring golang.org/x/tools/go/analysis:
// Run inspects a single package through its Pass and reports diagnostics.
// AppliesTo decides which module packages the driver hands the analyzer
// (nil = every package); the fixture harness bypasses it so testdata
// packages exercise the check directly.
type Analyzer struct {
	Name      string
	Doc       string
	AppliesTo func(pkgPath string) bool
	// WholeProgram analyzers run once over the whole program (Pass.Pkg is
	// nil) instead of once per package: noalloc follows call chains
	// across package boundaries and must see every package together.
	WholeProgram bool
	Run          func(*Pass)
}

// Pass carries one package (or, for WholeProgram analyzers, the whole
// program with Pkg nil) through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Fset     *token.FileSet
	report   func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless a matching suppression directive
// covers that line.
func (p *Pass) Reportf(pos token.Pos, directive string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if directive != "" && p.suppressedAt(position, directive) {
		return
	}
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: position, Message: fmt.Sprintf(format, args...)})
}

// Suppression directives. A finding on line N is waived by a
// `//lint:<directive> <reason>` comment either trailing line N or alone on
// line N-1; a trailing directive does not also waive a finding on the line
// below it. The reason is mandatory: a bare directive does not suppress,
// so every waiver in the tree carries its justification.
const (
	DirUnorderedOK = "unordered-ok" // detflow: iteration order provably irrelevant
	DirWallclockOK = "wallclock-ok" // detflow: wall-clock read never feeds simulated state
	DirNondetOK    = "nondet-ok"    // detflow: rand/env use outside the simulated state path
	DirAllocOK     = "alloc-ok"     // noalloc: allocation is cold, amortized, or pre-warmed
	DirTimerOK     = "timer-ok"     // timerarg: closure scheduling off the hot path
	DirPoolOK      = "pool-ok"      // poolsafe: pooled-record lifetime manually audited
	DirUnlockedOK  = "unlocked-ok"  // concur: access provably excluded without the lock
	DirGoroutineOK = "goroutine-ok" // concur: goroutine lifecycle managed elsewhere
)

// suppression is one parsed //lint: directive. A directive covers its own
// line, and when it stands alone on that line (preceding-comment form) the
// line below it too.
type suppression struct {
	line      int
	alone     bool
	directive string
	reason    string
}

// suppressedAt reports whether a //lint:<directive> with a non-empty
// reason covers the given position.
func (p *Pass) suppressedAt(pos token.Position, directive string) bool {
	for _, s := range p.Prog.suppressionsFor(pos.Filename) {
		if s.directive != directive || s.reason == "" {
			continue
		}
		if s.line == pos.Line || s.alone && s.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// collectSuppressions extracts every //lint: directive of a file.
func collectSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			directive, reason, _ := strings.Cut(text, " ")
			out = append(out, suppression{
				line:      fset.Position(c.Pos()).Line,
				directive: directive,
				reason:    strings.TrimSpace(reason),
			})
		}
	}
	if len(out) > 0 {
		code := codeLines(fset, f)
		for i := range out {
			out[i].alone = !code[out[i].line]
		}
	}
	return out
}

// codeLines reports the lines of f that hold code, from the positions of
// its syntax nodes: a line with code on it begins or ends some node. A
// line comment runs to the end of its line, so a directive on a line
// without code stands alone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		for _, p := range [2]token.Pos{n.Pos(), n.End()} {
			if p.IsValid() {
				lines[fset.Position(p).Line] = true
			}
		}
		return true
	})
	return lines
}

// DeterministicPackages names the packages whose simulated state must be
// bit-identical across worker counts and runs: everything a simulation's
// event order or emitted tables can observe. Every function declared in
// them roots detflow's reachability proof. internal/runner is not listed:
// its only code is one call to the scheduler, internal/fleet, which times
// progress on the wall clock, and both import experiments, so Go's import
// rules keep every root from calling them.
var DeterministicPackages = map[string]bool{
	"sim":         true,
	"network":     true,
	"coherence":   true,
	"memctrl":     true,
	"topology":    true,
	"traffic":     true,
	"experiments": true,
	"machine":     true,
}

// pkgBase returns the last path segment ("gs1280/internal/sim" -> "sim").
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsDeterministicPkg reports whether the package is under the determinism
// contract.
func IsDeterministicPkg(path string) bool { return DeterministicPackages[pkgBase(path)] }

// isHotPkg reports whether the package holds simulation hot paths — the
// deterministic set plus the CPU model, which schedules issue/compute
// events on the same engines.
func isHotPkg(path string) bool {
	return IsDeterministicPkg(path) || pkgBase(path) == "cpu"
}

// Analyzers returns the full gslint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, TimerArg, PoolSafe, DetFlow, Concur}
}

// RunAnalyzers applies each analyzer to every module package it applies
// to and returns the deduplicated findings sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[Diagnostic]bool)
	report := func(d Diagnostic) {
		if !seen[d] {
			seen[d] = true
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		if a.WholeProgram {
			runOne(prog, a, nil, report)
			continue
		}
		for _, pkg := range prog.Pkgs {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			runOne(prog, a, pkg, report)
		}
	}
	// Deterministic reporting order: (file, line, col, analyzer,
	// message) — stable across runs, analyzer sets and machines, so CI
	// diffs and the -json output are reproducible.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// runOne applies one analyzer to one package.
func runOne(prog *Program, a *Analyzer, pkg *Package, report func(Diagnostic)) {
	pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Fset: prog.Fset, report: report}
	a.Run(pass)
}

// Callee resolves the statically known callee of a call expression: a
// package-level function, a method called on a concrete receiver, or nil
// for calls through interfaces, function values, and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring fn ("" for
// builtins/universe).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
