package experiments

import (
	"reflect"
	"testing"
	"time"

	"gs1280/internal/machine"
	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/traffic"
)

// memoKeyExclusions are the only config fields no memo key holds: the
// engine, which a reset engine makes irrelevant, and the GS1280's override
// functions, which cannot be compared (measureRig never memoizes a rig
// with one).
var memoKeyExclusions = map[string]bool{"Eng": true, "NetOverride": true, "CohOverride": true, "ZboxOverride": true}

// openFamilies lists every open-loop family, for the checks that walk all
// of their points.
var openFamilies = []*openFamily{saturUniform, saturTranspose, saturHotspot, degradedSatur,
	tailSatur, tailDegraded, flakySatur, flakyQuarantine}

// setNonZero gives a scalar field a value other than its zero.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("x")
	default:
		t.Fatalf("field %s has kind %s: key it by value, or add it to memoKeyExclusions", name, v.Kind())
	}
}

// valueOnly reports the first field of typ, recursively, that a key would
// compare by identity or cannot compare at all. Interfaces are allowed:
// their dynamic types are checked where they are set.
func valueOnly(typ reflect.Type) (string, bool) {
	for _, f := range reflect.VisibleFields(typ) {
		if memoKeyExclusions[f.Name] {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Map, reflect.Slice, reflect.Chan:
			return f.Name, false
		case reflect.Struct:
			if name, ok := valueOnly(f.Type); !ok {
				return f.Name + "." + name, false
			}
		}
	}
	return "", true
}

// TestMemoKeysComplete fails when an input of a keyed measurement is
// missing from its key: every field of machine.GS1280Config,
// machine.SMPConfig and openPoint must be in the key, compared by value,
// or on memoKeyExclusions. Every traffic.Pattern the package uses must be
// comparable, since openPoint keys hold one.
func TestMemoKeysComplete(t *testing.T) {
	var gs machine.GS1280Config
	gv := reflect.ValueOf(&gs).Elem()
	for i, f := range reflect.VisibleFields(gv.Type()) {
		if !memoKeyExclusions[f.Name] {
			setNonZero(t, "GS1280Config."+f.Name, gv.Field(i))
		}
	}
	kv := reflect.ValueOf(gsRig(gs).key())
	for _, f := range reflect.VisibleFields(gv.Type()) {
		if memoKeyExclusions[f.Name] {
			continue
		}
		switch k := kv.FieldByName(f.Name); {
		case !k.IsValid() || k.Type() != f.Type:
			t.Errorf("machine.GS1280Config.%s (%s) is neither in rigKey nor excluded", f.Name, f.Type)
		case !k.Equal(gv.FieldByName(f.Name)):
			t.Errorf("rig.key drops machine.GS1280Config.%s", f.Name)
		}
	}

	smp := machine.SMPConfig{Eng: sim.NewEngine()}
	sv := reflect.ValueOf(&smp).Elem()
	for i, f := range reflect.VisibleFields(sv.Type()) {
		if !memoKeyExclusions[f.Name] {
			setNonZero(t, "SMPConfig."+f.Name, sv.Field(i))
		}
	}
	want := smp
	want.Eng = nil
	if got := smpRig(smp).key().SMP; got != want {
		t.Errorf("rig.key keeps %+v of SMPConfig %+v, want %+v", got, smp, want)
	}

	for _, typ := range []reflect.Type{kv.Type(), reflect.TypeOf(openPoint{})} {
		if name, ok := valueOnly(typ); !ok {
			t.Errorf("%s.%s is not compared by value in a memo key", typ.Name(), name)
		}
	}

	patterns := []traffic.Pattern{traffic.Uniform()}
	for _, p := range fig1617Patterns {
		patterns = append(patterns, p.pattern)
	}
	for _, f := range openFamilies {
		for _, q := range []bool{true, false} {
			rates, _, _ := openPlan(q)
			for li := range f.levels(q) {
				for vi := range f.variants.list {
					for ri := range rates {
						patterns = append(patterns, f.point(q, li, vi, ri).pattern)
					}
				}
			}
		}
	}
	for _, p := range patterns {
		if p == nil {
			continue // run keys a nil pattern as traffic.Uniform()
		}
		if typ := reflect.TypeOf(p); !typ.Comparable() {
			t.Errorf("traffic pattern %s (%s) is not comparable", p.Name(), typ)
		} else if name, ok := valueOnly(typ); !ok {
			t.Errorf("traffic pattern %s (%s) holds %s, compared by identity", p.Name(), typ, name)
		}
	}
}

// TestMemoServesRepeatedPoint checks one keyed measurement end to end: a
// nil pattern and traffic.Uniform() are one key, a hit returns the stored
// result without taking an engine, and another seed is another key.
func TestMemoServesRepeatedPoint(t *testing.T) {
	env := NewEnv(NewMemo())
	env.BeginUnit()
	want := openPoint{rate: 5, seed: 1}.run(env, quickWarm, quickMeasure)
	events := env.events

	env.BeginUnit()
	got := openPoint{pattern: traffic.Uniform(), rate: 5, seed: 1}.run(env, quickWarm, quickMeasure)
	if env.Reused() != 1 {
		t.Fatalf("uniform point reused %d results, want the nil-pattern point's", env.Reused())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memo hit differs from the computed result:\n got %+v\nwant %+v", got, want)
	}
	if len(env.engines) != 1 || env.events != events {
		t.Errorf("memo hit took an engine: %d engines, %d events, want 1 and %d",
			len(env.engines), env.events, events)
	}

	env.BeginUnit()
	openPoint{rate: 5, seed: 2}.run(env, quickWarm, quickMeasure)
	if env.Reused() != 1 {
		t.Errorf("a point with another seed was served from the memo")
	}
}

// TestMemoKeysSeparateCritModes: every memo key carries its Env's
// crit-differential mode, so of two Envs sharing one memo, one under the
// mode, neither is served the other's result. The results are still equal:
// on single-class traffic the crit arbiter reduces to FIFO, the golden
// differential's identity at the level of one measurement.
func TestMemoKeysSeparateCritModes(t *testing.T) {
	memo := NewMemo()
	off, on := NewEnv(memo), NewEnv(memo)
	on.crit = critMode{on: true, forced: network.CritBackground}
	type results struct {
		open  traffic.Result
		chase sim.Time
	}
	measure := func(env *Env) results {
		env.BeginUnit()
		return results{
			openPoint{rate: 5, seed: 1}.run(env, quickWarm, quickMeasure),
			chaseLatency(env, gsRig(machine.GS1280Config{W: 2, H: 1}), 2<<20, 64, 1000),
		}
	}
	want, got := measure(off), measure(on)
	if off.Reused() != 0 || on.Reused() != 0 {
		t.Errorf("reused %d results off the mode and %d under it, want 0 and 0", off.Reused(), on.Reused())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the crit differential changed a single-class measurement:\n got %+v\nwant %+v", got, want)
	}
}

// TestCritDifferentialModeReachesUnits checks the plumbing the golden
// replay cannot: single-class results are equal with the mode on or off,
// so a lookup whose units lost the mode would still replay every fixture.
// A CritDifferential unit must key its measurements apart from the
// catalog's unit, and leave its Env with the mode off.
func TestCritDifferentialModeReachesUnits(t *testing.T) {
	lookup := CritDifferential(network.CritDemand)
	if _, ok := lookup("fig99"); ok {
		t.Error("the differential lookup accepted an unknown id")
	}
	crit, _ := lookup("fig13")
	plain, _ := SpecByID("fig13")
	memo := NewMemo()
	on, off := NewEnv(memo), NewEnv(memo)
	want := crit.run(on, true)
	if on.mode() != (critMode{}) {
		t.Errorf("the unit left its Env under the mode %+v", on.mode())
	}
	got := plain.run(off, true)
	if off.Reused() != 0 {
		t.Errorf("the catalog's fig13 was served %d of the differential's results: its unit ran without the mode", off.Reused())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the differential changed fig13:\n got %+v\nwant %+v", got, want)
	}
}

// TestMeasurementReleasesEngines: every measurement on env's engines, keyed
// or not, resets them when it returns, so no pending event keeps its
// finished machine or network reachable from the slot, and it rewinds the
// cursor to where it found it.
func TestMeasurementReleasesEngines(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(env *Env)
	}{
		{"open-loop point", func(env *Env) { openPoint{rate: 5, seed: 1}.run(env, quickWarm, quickMeasure) }},
		{"pointer chase", func(env *Env) { chaseLatency(env, gsRig(machine.GS1280Config{W: 2, H: 1}), 64<<10, 64, 1000) }},
		{"fig14 row", func(env *Env) { fig14Row(env, 4) }},
		{"degraded-map column", func(env *Env) { degradedMapColumn(env, 0, 1) }},
		{"tail-miss point", func(env *Env) { tailMissPoint(env, 16, tailVariants[0], quickWarm, quickMeasure) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv(nil)
			env.BeginUnit()
			c.run(env)
			if env.next != 0 || len(env.engines) == 0 || env.events == 0 {
				t.Fatalf("cursor %d, %d engines, %d events: want a simulated measurement and the cursor rewound",
					env.next, len(env.engines), env.events)
			}
			for i, e := range env.engines {
				if e.Executed() != 0 || e.Pending() != 0 {
					t.Errorf("engine %d kept %d executed and %d pending events: not reset", i, e.Executed(), e.Pending())
				}
			}
		})
	}
}

// TestMemoNeverWaits pins the no-wait rule: a slot that misses computes,
// even while another slot computes the same key, a result is served only
// once it is stored, and a later store does not replace it. (Real results
// of one key are equal; the distinct values here tell the stores apart.)
func TestMemoNeverWaits(t *testing.T) {
	memo := NewMemo()
	type key struct{ n int }
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		done <- memoized(NewEnv(memo), key{1}, func() int {
			close(started)
			<-release
			return 1
		})
	}()
	<-started

	second := NewEnv(memo)
	got := make(chan int)
	go func() { got <- memoized(second, key{1}, func() int { return 2 }) }()
	select {
	case v := <-got:
		if v != 2 || second.Reused() != 0 {
			t.Errorf("second slot got %d with %d reused, want 2 computed", v, second.Reused())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a slot waited for another slot's computation of the same key")
	}
	close(release)
	<-done

	// The second slot stored first, and the first store wins.
	third := NewEnv(memo)
	if v := memoized(third, key{1}, func() int { return 3 }); v != 2 || third.Reused() != 1 {
		t.Errorf("stored key gave %d with %d reused, want the first store, 2", v, third.Reused())
	}
}

// TestMemoPanicStoresNothing: only completed results are stored, so a
// unit that panics mid-measurement leaves its key to be computed again.
func TestMemoPanicStoresNothing(t *testing.T) {
	env := NewEnv(NewMemo())
	type key struct{}
	func() {
		defer func() { recover() }()
		memoized(env, key{}, func() int { panic("unit failed") })
	}()
	if v := memoized(env, key{}, func() int { return 7 }); v != 7 || env.Reused() != 0 {
		t.Errorf("after a panic the key returned %d with %d reused, want 7 computed", v, env.Reused())
	}
}
