package lint

import (
	"sort"
	"testing"
)

// TestRepoAnnotationsPresent pins the annotation inventory the whole-
// program analyzers run on. TestGslintRepoClean proves the module has
// zero findings, but zero findings is also what you get if someone
// deletes the annotations that arm the checks — this test fails that
// regression instead. It loads the real module, so it shares
// TestGslintRepoClean's -short skip.
//
// The lists are ratchets, not mirrors: they name the annotations whose
// removal would silently disable a check that once caught a real bug
// (the fleet coordinator's unlocked resume-replay writes, the pooled
// record lifecycles in every hot path). Adding annotations does not
// touch this test; removing one of these must be a deliberate diff
// here too.
func TestRepoAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Pooled record types: the free-list-backed completion/transfer
	// records of every zero-alloc hot path.
	pooled := collectPooledTypes(prog)
	pooledNames := make(map[string]bool, len(pooled))
	for named := range pooled {
		pooledNames[named.Obj().Pkg().Name()+"."+named.Obj().Name()] = true
	}
	for _, want := range []string{
		"coherence.msg",
		"memctrl.completion",
		"cpu.opDone",
		"machine.ioXfer",
		"network.relXmit",
		"network.relAck",
	} {
		if !pooledNames[want] {
			t.Errorf("//gs:pooled annotation on %s is gone; poolsafe no longer checks its lifecycle", want)
		}
	}

	// Guarded fields: the scheduler's shared state, in the fleet
	// coordinator.
	guarded := collectGuardedFields(prog)
	guardedNames := make(map[string]bool, len(guarded))
	for obj := range guarded {
		guardedNames[obj.Pkg().Name()+"."+obj.Name()] = true
	}
	for _, want := range []string{
		"fleet.outstanding",
		"fleet.liveSlots",
		"fleet.settled",
		"fleet.remaining",
		"fleet.parts",
	} {
		if !guardedNames[want] {
			t.Errorf("//gs:guardedby annotation on %s is gone; concur no longer checks its lock discipline", want)
		}
	}

	// The detflow roots: DeterministicPackages matches by base name, so
	// renaming a package would silently drop it from the proof. Every
	// listed name must still root a module package's functions, and the
	// experiment entry points must all still be there.
	rooted := make(map[string]int)
	for _, fn := range detflowRoots(prog) {
		rooted[pkgBase(fn.Pkg().Path())]++
	}
	names := make([]string, 0, len(DeterministicPackages))
	for name := range DeterministicPackages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if rooted[name] == 0 {
			t.Errorf("no module package named %s roots detflow; the reachability proof has lost it", name)
		}
	}
	if n := rooted["experiments"]; n < 50 {
		t.Errorf("detflow found only %d experiment roots; the reachability proof has lost its entry points", n)
	}
}
