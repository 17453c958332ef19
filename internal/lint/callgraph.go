package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a cheap whole-program call graph in the CHA (class
// hierarchy analysis) style: sound over-approximation, no dataflow.
// Nodes are module-declared functions; edges point at every function a
// body could invoke:
//
//   - direct calls and qualified calls resolve to their static callee;
//   - calls and method values through an interface resolve to the same
//     method on every module type implementing that interface (the CHA
//     step — any of them could be behind the interface);
//   - a function merely *referenced* as a value (stored in a struct
//     field, passed as a callback, bound to a timer) gets an edge from
//     the referencing function, because the reference is how the callee
//     later becomes reachable through a dynamic call the graph cannot
//     see.
//
// Function literals are flattened into their enclosing declaration: a
// closure built inside F contributes F's out-edges. That matches how the
// analyzers use the graph — "what can run because F ran" — and keeps
// nodes identifiable by *types.Func.
//
// Each module package also has one node for its package-level var
// initializers, rendered "pkg.(var initializers)". Go runs them, then the
// package's init functions, before any of its functions and before any
// code that reads one of its vars. So every function declared in the
// package, and every function or initializer that uses one of its
// package-level vars, has an edge to the node; the node's own edges are
// what its initializers reference, plus the package's init functions.
//
// Edges may point outside the module (time.Now is a perfectly good edge
// target); only module functions have out-edges, so traversals stop at
// the module boundary naturally.
type CallGraph struct {
	// Out maps each module function to its deduplicated callees in
	// first-reference source order — deterministic across runs, which
	// keeps diagnostic chains stable.
	Out map[*types.Func][]*types.Func
	// Init maps each module package to its var-initializer node.
	Init map[*types.Package]*types.Func
}

// CallGraph builds (once — the result is cached on the Program) the
// whole-program call graph over every loaded module package.
func (pr *Program) CallGraph() *CallGraph {
	if pr.cg != nil {
		return pr.cg
	}
	b := &cgBuilder{
		prog:     pr,
		out:      make(map[*types.Func][]*types.Func),
		init:     make(map[*types.Package]*types.Func),
		chaCache: make(map[*types.Func][]*types.Func),
	}
	b.collectImplCandidates()
	for _, pkg := range pr.Pkgs {
		b.init[pkg.Types] = types.NewFunc(token.NoPos, pkg.Types, "(var initializers)", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	}
	for _, pkg := range pr.Pkgs {
		var vars []ast.Node
		var inits []*types.Func
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						vars = append(vars, d)
					}
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					b.addEdges(fn, pkg, d.Body)
					if d.Recv == nil && d.Name.Name == "init" {
						inits = append(inits, fn)
					}
				}
			}
		}
		// No code can name an init function, so these edges are new.
		node := b.init[pkg.Types]
		b.addEdges(node, pkg, vars...)
		b.out[node] = append(b.out[node], inits...)
	}
	pr.cg = &CallGraph{Out: b.out, Init: b.init}
	return pr.cg
}

// cgBuilder accumulates edges for one CallGraph construction.
type cgBuilder struct {
	prog *Program
	out  map[*types.Func][]*types.Func
	init map[*types.Package]*types.Func // each package's var-initializer node
	// impls lists every named non-interface type declared at package
	// level in the module, in deterministic (package, name) order — the
	// candidate set for CHA interface dispatch.
	impls []types.Type
	// chaCache memoizes interface method -> implementing module methods.
	chaCache map[*types.Func][]*types.Func
}

// collectImplCandidates gathers the module's package-level named types.
func (b *cgBuilder) collectImplCandidates() {
	for _, pkg := range b.prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t.Underlying()) {
				continue
			}
			b.impls = append(b.impls, t)
		}
	}
}

// addEdges records the out-edges of fn from code of pkg: a function's
// body, or the package's var declarations for its initializer node. That
// is one edge per used *types.Func identifier (covering calls, qualified
// calls, method calls/values, and plain references), with interface
// methods expanded CHA-style to their module implementations, and one to
// the initializer node of each module package whose package-level var
// the code uses. A function also gets an edge to its own package's
// initializer node; no node gets one to itself.
func (b *cgBuilder) addEdges(fn *types.Func, pkg *Package, code ...ast.Node) {
	seen := make(map[*types.Func]bool)
	add := func(callee *types.Func) {
		callee = callee.Origin()
		if !seen[callee] {
			seen[callee] = true
			b.out[fn] = append(b.out[fn], callee)
		}
	}
	for _, c := range code {
		ast.Inspect(c, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pkg.Info.Uses[id].(type) {
			case *types.Func:
				if isInterfaceMethod(obj) {
					for _, impl := range b.chaTargets(obj) {
						add(impl)
					}
				} else {
					add(obj)
				}
			case *types.Var:
				if node := b.init[obj.Pkg()]; node != nil && node != fn && obj.Parent() == obj.Pkg().Scope() {
					add(node)
				}
			}
			return true
		})
	}
	if own := b.init[pkg.Types]; fn != own {
		add(own)
	}
}

// isInterfaceMethod reports whether fn is an abstract method declared on
// an interface type (so a use of it dispatches dynamically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type().Underlying())
}

// chaTargets resolves an abstract interface method to the concrete
// methods of every module type implementing the interface.
func (b *cgBuilder) chaTargets(m *types.Func) []*types.Func {
	if ts, ok := b.chaCache[m]; ok {
		return ts
	}
	var targets []*types.Func
	sig := m.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if ok {
		for _, t := range b.impls {
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				targets = append(targets, impl.Origin())
			}
		}
	}
	b.chaCache[m] = targets
	return targets
}

// ReachableFrom runs a breadth-first traversal from roots and returns
// the parent map: every reached function maps to the function it was
// first reached from (roots map to nil). Traversal order — and thus
// parent choice — is deterministic given deterministic root order.
func (g *CallGraph) ReachableFrom(roots []*types.Func) map[*types.Func]*types.Func {
	parent := make(map[*types.Func]*types.Func, len(roots))
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		r = r.Origin()
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range g.Out[fn] {
			if _, ok := parent[callee]; !ok {
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return parent
}

// CallChain renders the root-to-fn path recorded in a ReachableFrom
// parent map, e.g. "experiments.Specs → workload.NewGUPS → cache.fill".
// Long chains elide their middle: the root and the last hops are what a
// reader needs to locate the path.
func CallChain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var hops []string
	for f := fn; f != nil; f = parent[f] {
		hops = append(hops, shortFuncName(f))
		if _, ok := parent[f]; !ok {
			break
		}
	}
	// hops is leaf..root; reverse it.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	const max = 6
	if len(hops) > max {
		head, tail := hops[:2], hops[len(hops)-(max-2):]
		hops = append(append(append([]string{}, head...), "…"), tail...)
	}
	return strings.Join(hops, " → ")
}

// shortFuncName renders fn compactly: "pkg.Func" or "pkg.Type.Method".
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return pkgBase(fn.Pkg().Path()) + "." + name
	}
	return name
}
