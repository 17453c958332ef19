package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Concur enforces the concurrency discipline the tiled parallel engine
// (ROADMAP item 1) will live under, and that internal/fleet, the
// experiment scheduler, already follows by convention. Two checks:
//
// guardedby — a struct field annotated `//gs:guardedby <mu>` may only be
// accessed in functions that (textually) lock <mu> first, or that are
// themselves annotated `//gs:holds <mu>` (the caller-holds-the-lock
// contract, for helpers like fleet's account). This is a discipline
// checker, not a race detector: it checks that a Lock call on a mutex of
// that name precedes the access in the enclosing declaration, which
// catches the real failure mode — a new code path touching shared state
// without thinking about the lock — while leaving proofs of exclusion to
// the race-enabled CI shards. Pre-concurrency setup and post-join
// epilogue accesses are waived with `//lint:unlocked-ok <reason>`.
//
// goleak — every `go` statement must have a visible join or cancel
// path. Accepted shapes, which cover every legitimate spawn in the
// module:
//
//   - the body defers a Done call (WaitGroup join);
//   - the body ranges over a channel (terminates when the sender
//     closes it);
//   - the body contains a select with a receive case that returns
//     (cancelable worker loop);
//   - the body is loop-free (bounded straight-line work, like a
//     single Recv shuttled onto a buffered channel).
//
// A `go` statement inside a deterministic package is flagged
// unconditionally: simulation packages are single-goroutine by
// contract until the parallel engine introduces its own annotated
// structure. Waive audited spawns with `//lint:goroutine-ok <reason>`.
var Concur = &Analyzer{
	Name: "concur",
	Doc:  "checks //gs:guardedby field access discipline and goroutine join/cancel paths",
	Run:  runConcur,
}

// Directives recognized by the guardedby check.
const (
	gsGuardedByDirective = "//gs:guardedby"
	gsHoldsDirective     = "//gs:holds"
)

func runConcur(p *Pass) {
	guarded := collectGuardedFields(p.Prog)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedAccess(p, fd, guarded)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkGoStmt(p, gs)
			}
			return true
		})
	}
}

// collectGuardedFields maps annotated struct fields to the mutex name
// guarding them. The whole program is indexed (not just Pass.Pkg) so an
// exported annotated field is checked at cross-package access sites too;
// the result is cheap enough to rebuild per package.
func collectGuardedFields(prog *Program) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := directiveArg(field.Doc, gsGuardedByDirective)
					if mu == "" {
						mu = directiveArg(field.Comment, gsGuardedByDirective)
					}
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							out[obj] = mu
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// directiveArg extracts the argument of a //gs: directive from a comment
// group ("//gs:guardedby mu" -> "mu"), or "" if absent.
func directiveArg(doc *ast.CommentGroup, directive string) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directive+" "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// checkGuardedAccess verifies every annotated-field access in one
// declaration happens after a Lock of the guarding mutex in the same
// innermost function — the declaration body, or the func literal the
// access sits in (a lock taken inside a spawned goroutine must not
// legitimize accesses outside it, and vice versa) — or inside a
// //gs:holds function.
func checkGuardedAccess(p *Pass, fd *ast.FuncDecl, guarded map[types.Object]string) {
	if len(guarded) == 0 {
		return
	}
	holds := directiveArg(fd.Doc, gsHoldsDirective)
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	// enclosing resolves a position to its innermost function: the
	// smallest containing literal, or the declaration itself.
	enclosing := func(pos token.Pos) ast.Node {
		var best *ast.FuncLit
		for _, lit := range lits {
			if lit.Pos() <= pos && pos <= lit.End() {
				if best == nil || (best.Pos() <= lit.Pos() && lit.End() <= best.End()) {
					best = lit
				}
			}
		}
		if best != nil {
			return best
		}
		return fd
	}
	type lockRec struct {
		scope ast.Node
		name  string
		pos   token.Pos
	}
	var locks []lockRec
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mu := lastComponent(sel.X); mu != "" {
			locks = append(locks, lockRec{scope: enclosing(call.Pos()), name: mu, pos: call.Pos()})
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fieldObj := p.Pkg.Info.Uses[sel.Sel]
		if fieldObj == nil {
			return true
		}
		mu, ok := guarded[fieldObj]
		if !ok {
			return true
		}
		if holds == mu {
			return true
		}
		scope := enclosing(sel.Pos())
		for _, l := range locks {
			if l.scope == scope && l.name == mu && l.pos < sel.Pos() {
				return true
			}
		}
		p.Reportf(sel.Sel.Pos(), DirUnlockedOK,
			"access to %s, guarded by %q, with no prior %s.Lock() in %s and no //gs:holds %s contract: lock first or justify with //lint:unlocked-ok",
			exprString(sel), mu, mu, fd.Name.Name, mu)
		return true
	})
}

// lastComponent returns the final identifier of an expression chain
// ("c.mu" -> "mu", "mu" -> "mu").
func lastComponent(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// checkGoStmt verifies one spawned goroutine has a join/cancel shape.
func checkGoStmt(p *Pass, gs *ast.GoStmt) {
	if IsDeterministicPkg(p.Pkg.Path) {
		p.Reportf(gs.Go, DirGoroutineOK,
			"goroutine spawned in deterministic package %s: simulation packages are single-goroutine by contract; justify with //lint:goroutine-ok when the parallel engine's structure covers it", pkgBase(p.Pkg.Path))
		return
	}
	body := goBody(p, gs)
	if body == nil {
		p.Reportf(gs.Go, DirGoroutineOK,
			"goroutine target is not statically resolvable, so its join/cancel path cannot be checked: spawn a declared function or literal, or justify with //lint:goroutine-ok")
		return
	}
	if goroutineBounded(p.Pkg.Info, body) {
		return
	}
	p.Reportf(gs.Go, DirGoroutineOK,
		"goroutine has no visible join or cancel path (no deferred Done, no channel range, no select receive that returns, and it loops): it can leak past its spawner; add one or justify with //lint:goroutine-ok")
}

// goBody resolves the body a go statement runs: a literal's body, or the
// declaration of a statically resolvable callee.
func goBody(p *Pass, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := Callee(p.Pkg.Info, gs.Call)
	if fn == nil {
		return nil
	}
	if fd := p.Prog.DeclOf(fn); fd != nil {
		return fd.Decl.Body
	}
	return nil
}

// goroutineBounded reports whether a goroutine body has one of the
// accepted join/cancel shapes.
func goroutineBounded(info *types.Info, body *ast.BlockStmt) bool {
	hasLoop := false
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literals run on their own goroutine rules
		case *ast.DeferStmt:
			if sel, isSel := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "Done" {
				ok = true
			}
		case *ast.RangeStmt:
			hasLoop = true
			// Ranging over a channel terminates when the sender closes
			// it — the drain-goroutine shape.
			if tv, hasType := info.Types[n.X]; hasType {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ok = true
				}
			}
		case *ast.ForStmt:
			hasLoop = true
		case *ast.SelectStmt:
			for _, cc := range n.Body.List {
				clause, isClause := cc.(*ast.CommClause)
				if !isClause || clause.Comm == nil {
					continue
				}
				if !isRecvComm(clause.Comm) {
					continue
				}
				if clauseReturns(clause.Body) {
					ok = true
				}
			}
		}
		return true
	})
	return ok || !hasLoop
}

// isRecvComm reports whether a select communication is a receive.
func isRecvComm(s ast.Stmt) bool {
	switch c := s.(type) {
	case *ast.ExprStmt:
		u, ok := c.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW
		}
	}
	return false
}

// clauseReturns reports whether a select clause body ends the goroutine.
func clauseReturns(body []ast.Stmt) bool {
	for _, st := range body {
		if _, ok := st.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
