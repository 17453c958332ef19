package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetFlow is the repo's one determinism proof. Simulated state must be
// byte-identical at any -j, so nothing a simulation can run may observe
// the wall clock, the global math/rand state, the process environment,
// or Go's randomized map iteration order.
//
// Every function, method and init declared in a DeterministicPackages
// package roots a walk of the whole-program call graph, and detflow
// scans what the walk reaches, in any package: the body of every reached
// function, and the var initializers of every package whose initializer
// node is reached. The graph gives a package's initializers an edge from
// each of its functions and from each reader of one of its vars, and
// edges to what they reference, so the walk follows initializers to a
// fixpoint. A helper package nobody listed (stats, workload, cache, ...)
// is covered the moment simulation code can reach it, and each finding
// prints the root→sink call chain.
//
// Any use of a sink function counts, not only a call: binding time.Now
// or os.Getenv to a variable and calling that is the same read. Methods
// are never sinks, so a seeded *rand.Rand stays legal.
//
// internal/runner and internal/fleet may read the wall clock: both
// import experiments, which depends on every deterministic package, so
// Go's import rules keep every root from calling them.
//
// Waivers are //lint:wallclock-ok, //lint:nondet-ok and
// //lint:unordered-ok at the sink line, each with a mandatory reason.
var DetFlow = &Analyzer{
	Name:         "detflow",
	Doc:          "proves no path from deterministic code reaches wall-clock, global rand, env, or map-order sinks",
	WholeProgram: true,
	Run:          runDetFlow,
}

// wallclockFuncs are the time-package reads that observe the host clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// envFuncs are the os-package reads that observe the process environment.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func runDetFlow(p *Pass) {
	cg := p.Prog.CallGraph()
	parent := cg.ReachableFrom(detflowRoots(p.Prog))
	// Scan in deterministic package/file/declaration order.
	for _, pkg := range p.Prog.Pkgs {
		inits := cg.Init[pkg.Types]
		_, initsRun := parent[inits]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if initsRun && d.Tok == token.VAR {
						scanDetFlowSinks(p, pkg, d, func() string { return CallChain(parent, inits) })
					}
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if _, reached := parent[fn]; reached && d.Body != nil {
						scanDetFlowSinks(p, pkg, d.Body, func() string { return CallChain(parent, fn) })
					}
				}
			}
		}
	}
}

// detflowRoots lists every function, method and init declared in a
// deterministic package, in source order.
func detflowRoots(prog *Program) []*types.Func {
	var roots []*types.Func
	for _, pkg := range prog.Pkgs {
		if !IsDeterministicPkg(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, fn)
				}
			}
		}
	}
	return roots
}

// scanDetFlowSinks reports every sink inside node: a reached function's
// body, or a var declaration of a package whose initializers are reached.
// chain renders how deterministic code reaches node.
func scanDetFlowSinks(p *Pass, pkg *Package, node ast.Node, chain func() string) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn, ok := pkg.Info.Uses[n].(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallclockFuncs[fn.Name()] {
					p.Reportf(n.Pos(), DirWallclockOK,
						"time.%s is reachable from deterministic code (%s): wall clock cannot feed simulated state; use sim.Engine time or justify with //lint:wallclock-ok", fn.Name(), chain())
				}
			case "math/rand", "math/rand/v2":
				// Only the package-level functions share hidden global
				// state (and v2's are seeded randomly by design).
				p.Reportf(n.Pos(), DirNondetOK,
					"global math/rand.%s is reachable from deterministic code (%s): use a seeded sim.RNG or justify with //lint:nondet-ok", fn.Name(), chain())
			case "os":
				if envFuncs[fn.Name()] {
					p.Reportf(n.Pos(), DirNondetOK,
						"os.%s is reachable from deterministic code (%s): the environment varies by host; thread configuration through the Spec or justify with //lint:nondet-ok", fn.Name(), chain())
				}
			}
		case *ast.RangeStmt:
			if _, isMap := pkg.Info.TypeOf(n.X).Underlying().(*types.Map); isMap && !isKeyCollectLoop(pkg.Info, n) {
				p.Reportf(n.For, DirUnorderedOK,
					"range over map %s is reachable from deterministic code (%s): iteration order is randomized; sort keys first or justify with //lint:unordered-ok", exprString(n.X), chain())
			}
		}
		return true
	})
}

// isKeyCollectLoop recognizes the collect-then-sort prologue, the one map
// range accepted without a directive: every statement of the body bumps
// a counter or appends call-free values to the slice it assigns,
// `keys = append(keys, k)`; code review and the golden fixtures guard the
// sort that follows. Anything else can observe iteration order: a call
// (`seqs = append(seqs, e.Schedule(k))` schedules in map order), nested
// control flow, or `last = append(base, k)`, where the last key wins.
func isKeyCollectLoop(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, st := range rs.Body.List {
		switch s := st.(type) {
		case *ast.IncDecStmt:
			// counter bump: order-insensitive
		case *ast.AssignStmt:
			if !isAppendAssign(info, s) {
				return false
			}
			call := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if types.ExprString(s.Lhs[0]) != types.ExprString(call.Args[0]) || !callFree(info, call.Args[1:]) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isAppendAssign reports whether s assigns one builtin append call to one
// target, `x = append(...)`.
func isAppendAssign(info *types.Info, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	// append must be the builtin, not a shadowing local.
	obj := info.Uses[id]
	return obj != nil && obj.Parent() == types.Universe
}

// callFree reports whether no function or method is called inside es;
// conversions such as int64(k) are fine.
func callFree(info *types.Info, es []ast.Expr) bool {
	free := true
	for _, e := range es {
		ast.Inspect(e, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && !info.Types[c.Fun].IsType() {
				free = false
			}
			return free
		})
	}
	return free
}

// exprString renders simple expressions for messages (identifier chains);
// anything more complex degrades to "expression".
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	}
	return "expression"
}
