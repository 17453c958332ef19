package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Errorf("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v events, want 2", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12 after RunUntil", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("resume did not run remaining events: %v", ran)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100 * Nanosecond)
	if e.Now() != 100*Nanosecond {
		t.Fatalf("clock = %v, want 100ns", e.Now())
	}
}

func TestStopHaltsAndResumeContinues(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("ran %d events before stop, want 2", count)
	}
	e.Resume()
	e.Run()
	if count != 5 {
		t.Fatalf("ran %d events total, want 5", count)
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Fatalf("executed = %d, want 7", e.Executed())
	}
}

// Property: for any set of non-negative offsets, the engine visits them in
// sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var visited []Time
		for _, off := range offsets {
			at := Time(off)
			e.At(at, func() { visited = append(visited, at) })
		}
		e.Run()
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(visited) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	s1 := r.Acquire(10)
	s2 := r.Acquire(10)
	s3 := r.Acquire(5)
	if s1 != 0 || s2 != 10 || s3 != 20 {
		t.Fatalf("starts = %v %v %v, want 0 10 20", s1, s2, s3)
	}
	if r.FreeAt() != 25 {
		t.Fatalf("freeAt = %v, want 25", r.FreeAt())
	}
}

func TestResourceIdleGapThenAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(10)
	e.At(50, func() {
		if got := r.Acquire(10); got != 50 {
			t.Errorf("start = %v, want 50 (resource idle)", got)
		}
	})
	e.Run()
}

func TestResourceAcquireAt(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	if got := r.AcquireAt(100, 10); got != 100 {
		t.Fatalf("start = %v, want 100", got)
	}
	if got := r.AcquireAt(50, 10); got != 110 {
		t.Fatalf("start = %v, want 110 (queued behind first)", got)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(25)
	e.At(100, func() {})
	e.Run()
	if u := r.Utilization(); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	r.ResetStats()
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization after reset = %v, want 0", u)
	}
}

func TestResourceQueueDelay(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(40)
	if d := r.QueueDelay(); d != 40 {
		t.Fatalf("queue delay = %v, want 40", d)
	}
	e.At(60, func() {
		if d := r.QueueDelay(); d != 0 {
			t.Errorf("queue delay = %v, want 0 after free", d)
		}
	})
	e.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{83 * Nanosecond, "83ns"},
		{1250 * Nanosecond, "1.25us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestCycles(t *testing.T) {
	// 12 cycles at 1.15 GHz is the paper's L2 load-to-use: 10.4 ns.
	got := Cycles(12, 1_150_000_000)
	if got < 10*Nanosecond || got > 11*Nanosecond {
		t.Fatalf("12 cycles @1.15GHz = %v, want ~10.4ns", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 64 bytes at 12.3 GB/s is ~5.2 ns.
	got := TransferTime(64, 12_300_000_000)
	if got < 5*Nanosecond || got > 6*Nanosecond {
		t.Fatalf("64B @12.3GB/s = %v, want ~5.2ns", got)
	}
	if TransferTime(0, 1000) != 0 {
		t.Fatal("zero size should cost zero time")
	}
	// Rounds up: 1 byte at 3 B/s is 333.33.. ms -> 333333333334 ps.
	if got := TransferTime(1, 3); got != Time(333333333334) {
		t.Fatalf("rounding: got %v", int64(got))
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(99)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGDistributionRoughlyUniform(t *testing.T) {
	r := NewRNG(1234)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, n/buckets)
		}
	}
}

func TestEngineAtArgInterleavesWithAt(t *testing.T) {
	e := NewEngine()
	var order []int
	record := func(a any) { order = append(order, *a.(*int)) }
	one, three := 1, 3
	e.AtArg(5, record, &one)
	e.At(5, func() { order = append(order, 2) })
	e.AtArg(5, record, &three)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("AtArg/At tie-break violated: %v", order)
	}
}

func TestEngineAtArgPassesArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ v int }
	p := &payload{v: 41}
	e.AfterArg(10, func(a any) { a.(*payload).v++ }, p)
	e.Run()
	if p.v != 42 {
		t.Fatalf("arg not delivered: %d", p.v)
	}
}

func TestEngineAtArgPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AtArg in the past did not panic")
			}
		}()
		e.AtArg(5, func(any) {}, nil)
	})
	e.Run()
}

// TestEngineAtArgZeroAlloc pins the zero-allocation scheduling primitive:
// a pre-bound func(any) plus a pooled pointer arg must schedule and
// dispatch without touching the heap once the backing array is warm.
func TestEngineAtArgZeroAlloc(t *testing.T) {
	e := NewEngine()
	type txn struct{ n int }
	arg := &txn{}
	fn := func(a any) { a.(*txn).n++ }
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.AtArg(e.now+Time(i+1), fn, arg)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.now+1, fn, arg)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("AtArg+Step allocates %.2f allocs/op, want 0", allocs)
	}
	// Bytes too: backing-array churn can round to 0 allocs/op while still
	// costing steady-state bandwidth.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10000; i++ {
		e.AtArg(e.now+1, fn, arg)
		e.Step()
	}
	runtime.ReadMemStats(&m1)
	if perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / 10000; perOp > 1 {
		t.Fatalf("AtArg+Step allocates %.2f bytes/op, want 0", perOp)
	}
}

// TestEnginePoolBoundedAfterDrain guards the node pool's memory bound: a
// saturation transient that queues tens of thousands of events must not
// pin its peak node population once the queue drains — nodes released
// beyond maxFreeNodes go to the garbage collector (the wheel's analogue of
// the old heap's shrink-after-drain).
func TestEnginePoolBoundedAfterDrain(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	const peak = 100000
	for i := 0; i < peak; i++ {
		e.AtArg(Time(i+1), fn, nil)
	}
	e.Run()
	if got := len(e.free); got > maxFreeNodes {
		t.Fatalf("free list holds %d nodes after %d-event transient; cap is %d", got, peak, maxFreeNodes)
	}
	// The engine still works after the drop.
	e.AtArg(e.now+1, fn, nil)
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

// TestTimerScheduleCancelReschedule covers the cancelable-handle
// lifecycle: arm, fire, rearm from the callback, cancel, and the
// armed-state queries.
func TestTimerScheduleCancelReschedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.Timer(func() { fired = append(fired, e.Now()) })
	if tm.Armed() {
		t.Fatal("fresh timer armed")
	}
	tm.Schedule(10)
	if !tm.Armed() || tm.When() != 10 {
		t.Fatalf("armed=%v when=%v, want armed at 10", tm.Armed(), tm.When())
	}
	tm.Reschedule(5)
	if tm.When() != 5 {
		t.Fatalf("rescheduled when=%v, want 5", tm.When())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("fired=%v, want [5]", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
	tm.Schedule(7)
	if !tm.Cancel() {
		t.Fatal("cancel of armed timer reported false")
	}
	if tm.Cancel() {
		t.Fatal("cancel of idle timer reported true")
	}
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("cancelled timer fired: %v", fired)
	}
}

// TestTimerCancelCostsNoDispatch pins the tentpole behaviour the link
// pump relies on: a cancelled event never reaches dispatch, so Executed
// counts only live work.
func TestTimerCancelCostsNoDispatch(t *testing.T) {
	e := NewEngine()
	tm := e.Timer(func() { t.Fatal("cancelled timer dispatched") })
	for i := 0; i < 1000; i++ {
		tm.Schedule(Time(i + 1))
		tm.Cancel()
	}
	// Include a far-horizon arm so the lazy heap-cancel path is covered.
	tm.Schedule(200 * Microsecond)
	tm.Cancel()
	e.At(1, func() {})
	e.Run()
	if e.Executed() != 1 {
		t.Fatalf("executed = %d, want 1 (cancels must not dispatch)", e.Executed())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestTimerOrderMatchesAtArg pins determinism across the two scheduling
// APIs: a timer armed between two AtArg schedules ties at the same instant
// in arm order, exactly as three AtArg calls would.
func TestTimerOrderMatchesAtArg(t *testing.T) {
	e := NewEngine()
	var order []int
	record := func(a any) { order = append(order, *a.(*int)) }
	one, three := 1, 3
	tm := e.Timer(func() { order = append(order, 2) })
	e.AtArg(9, record, &one)
	tm.ScheduleAt(9)
	e.AtArg(9, record, &three)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timer/AtArg tie-break violated: %v", order)
	}
}

// TestEngineResetBehavesLikeFresh drives the same workload on a fresh
// engine and on one reset after unrelated work (including events left
// pending across every level of the wheel) and requires identical
// dispatch traces — the property the scheduler's engine reuse rests on.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	workload := func(e *Engine) []Time {
		var trace []Time
		rng := NewRNG(7)
		var reschedule func()
		n := 0
		reschedule = func() {
			trace = append(trace, e.Now())
			if n++; n < 500 {
				e.After(Time(rng.Intn(300))*Nanosecond, reschedule)
			}
		}
		e.After(1, reschedule)
		e.Run()
		return trace
	}
	fresh := NewEngine()
	want := workload(fresh)

	used := NewEngine()
	used.AtArg(5, func(any) {}, nil)
	used.Run()
	used.At(3*Nanosecond, func() {})    // level 0 leftover
	used.At(10*Microsecond, func() {})  // level 1 leftover
	used.At(500*Microsecond, func() {}) // far-heap leftover
	tm := used.Timer(func() {})         //
	tm.Schedule(77 * Nanosecond)        // armed timer leftover
	used.Reset()
	if used.Now() != 0 || used.Pending() != 0 || used.Executed() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d executed=%d",
			used.Now(), used.Pending(), used.Executed())
	}
	if got := workload(used); len(got) != len(want) {
		t.Fatalf("reset engine trace length %d, fresh %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reset engine diverged at event %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%100), func() {})
	}
	e.Run()
}
