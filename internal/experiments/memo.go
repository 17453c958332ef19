package experiments

import (
	"sync"

	"gs1280/internal/coherence"
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// Memo is a run-scoped store of completed measurements. Every measurement
// that builds its own machine or network from values — openPoint.run, and
// each helper that measures through measureRig — keys itself with every
// input that can change it and consults the memo of its Env: a repeated
// key returns the stored result without building or simulating anything.
// A result is a deterministic function of its key, so a hit returns
// exactly what computing would, and every table stays byte-identical.
//
// A Memo is safe for concurrent use, and a lookup never waits: a unit that
// misses computes, even while another slot computes the same key, and only
// completed results are stored (the first store wins), so a unit that
// panics stores nothing.
type Memo struct {
	mu sync.Mutex
	//gs:guardedby mu
	results map[any]any
}

// NewMemo returns an empty memo. The scheduler (internal/fleet) creates one
// per run and shares it among the run's in-process slots; each worker
// process and each serial run (Spec.Run) creates its own.
func NewMemo() *Memo { return &Memo{results: make(map[any]any)} }

func (m *Memo) load(key any) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.results[key]
	return v, ok
}

func (m *Memo) store(key, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.results[key]; !ok {
		m.results[key] = v
	}
}

// memoKey is a helper's key plus the Env's crit-differential mode, which
// rig.build and openPoint.run read besides their arguments.
type memoKey[K comparable] struct {
	key  K
	crit critMode
}

// memoized returns compute's result, stored in env's memo under key, whose
// type must belong to one helper so that two helpers' keys never collide.
// A nil env, or one without a memo, computes every time.
func memoized[K comparable, V any](env *Env, key K, compute func() V) V {
	if env == nil || env.memo == nil {
		return scoped(env, compute)
	}
	k := memoKey[K]{key, env.crit}
	if v, ok := env.memo.load(k); ok {
		env.reused++
		return v.(V)
	}
	v := scoped(env, compute)
	env.memo.store(k, v)
	return v
}

// scoped returns compute's result and releases the engines compute took
// from env (see Env.scope): the machine or network a keyed helper builds
// is dead once the helper returns.
func scoped[V any](env *Env, compute func() V) V {
	defer env.scope()()
	return compute()
}

// rig is a machine a measurement builds for itself: an SMP when smp.CPUs is
// set, otherwise a GS1280 from gs.
type rig struct {
	gs  machine.GS1280Config
	smp machine.SMPConfig
}

func gsRig(cfg machine.GS1280Config) rig { return rig{gs: cfg} }
func smpRig(cfg machine.SMPConfig) rig   { return rig{smp: cfg} }

// rigKey is a rig's part of a memo key: every value field of the
// GS1280Config, and the SMPConfig without its engine. The engine does not
// change a result, since a reset engine behaves as a fresh one; the
// GS1280's override functions cannot be compared, so a rig with one is
// never keyed (see measureRig).
type rigKey struct {
	W, H         int
	Shuffle      bool
	Policy       topology.RoutePolicy
	Striped      bool
	RegionBytes  int64
	MLP          int
	NAKThreshold int
	CritArb      bool
	SMP          machine.SMPConfig
}

// rigArgs is measureRig's key: the rig's key and the helper's arguments.
type rigArgs[A comparable] struct {
	rig  rigKey
	args A
}

func (r rig) key() rigKey {
	smp := r.smp
	smp.Eng = nil
	g := r.gs
	return rigKey{
		W: g.W, H: g.H, Shuffle: g.Shuffle, Policy: g.Policy, Striped: g.Striped,
		RegionBytes: g.RegionBytes, MLP: g.MLP, NAKThreshold: g.NAKThreshold, CritArb: g.CritArb,
		SMP: smp,
	}
}

// build builds the rig's machine on eng: the package's only machine
// constructor call. Under the crit differential a GS1280 also arbitrates by
// criticality with every packet forced into crit's class, composed with
// any CohOverride the rig sets.
func (r rig) build(eng *sim.Engine, crit critMode) machine.Machine {
	if r.smp.CPUs > 0 {
		cfg := r.smp
		cfg.Eng = eng
		return machine.NewSMP(cfg)
	}
	cfg := r.gs
	cfg.Eng = eng
	if crit.on {
		cfg.CritArb = true
		prev := cfg.CohOverride
		cfg.CohOverride = func(p *coherence.Params) {
			if prev != nil {
				prev(p)
			}
			p.ForceCritOn = true
			p.ForceCrit = crit.forced
		}
	}
	return machine.NewGS1280(cfg)
}

// measureRig builds r on the unit's next engine and returns measure's
// result on it, memoized under r and args; it is how the package builds
// every machine. Each helper passes its arguments as a struct type of its
// own, so two helpers' keys never collide. measure returns only values:
// a result that referenced the machine would keep it alive for the whole
// run. Callers treat a served slice as read-only. A GS1280 with an
// override function (ablation's det-routing and closed-page rows) is
// measured without the memo.
func measureRig[A comparable, V any](env *Env, r rig, args A, measure func(machine.Machine) V) V {
	compute := func() V { return measure(r.build(env.Engine(), env.mode())) }
	if g := r.gs; g.NetOverride != nil || g.CohOverride != nil || g.ZboxOverride != nil {
		return scoped(env, compute)
	}
	return memoized(env, rigArgs[A]{r.key(), args}, compute)
}
