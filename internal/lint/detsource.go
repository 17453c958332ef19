package lint

import (
	"go/ast"
	"go/types"
)

// DetSource forbids reading nondeterministic sources — wall clocks, the
// global math/rand state, and the process environment — in the
// deterministic packages plus internal/runner. A simulation's only
// legitimate randomness is a sim.RNG seeded from its spec, and its only
// clock is sim.Engine time; anything else makes two runs (or two worker
// schedules) diverge.
//
// Waivers: `//lint:wallclock-ok <reason>` for time-package reads that are
// provably presentation-only (progress or report timing), and
// `//lint:nondet-ok <reason>` for rand/env reads outside the simulated
// state path. Both require a reason.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "forbids time.Now, global math/rand, and env reads in deterministic packages",
	AppliesTo: func(path string) bool {
		return IsDeterministicPkg(path) || pkgBase(path) == "runner"
	},
	Run: runDetSource,
}

// wallclockFuncs are the time-package reads that observe the host clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// envFuncs are the os-package reads that observe the process environment.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func runDetSource(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := Callee(p.Pkg.Info, call)
			if fn == nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallclockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
					p.Reportf(call.Pos(), DirWallclockOK,
						"time.%s reads the wall clock in a deterministic package: use sim.Engine time, or justify with //lint:wallclock-ok", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Methods on a locally seeded *rand.Rand are deterministic;
				// only the package-level functions share hidden global
				// state (and v2's are seeded randomly by design).
				if fn.Type().(*types.Signature).Recv() == nil {
					p.Reportf(call.Pos(), DirNondetOK,
						"global math/rand.%s in a deterministic package: use a seeded sim.RNG, or justify with //lint:nondet-ok", fn.Name())
				}
			case "os":
				if envFuncs[fn.Name()] {
					p.Reportf(call.Pos(), DirNondetOK,
						"os.%s reads the environment in a deterministic package: thread configuration through the Spec, or justify with //lint:nondet-ok", fn.Name())
				}
			}
			return true
		})
	}
}
