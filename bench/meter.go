package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// profileLabel marks profile samples taken inside timed calls.
const profileLabel = "bench"

// meter records one run's host-time measurements. Workloads call it around
// the calls they make into the simulator's layers; everything it times is
// outside the program under test.
//
// Times are CPU time, not wall time: on a shared host the hypervisor takes
// the CPU away for bursts of up to seconds, and wall time then measures
// the neighbours. What remains of the host's variation — cache and memory
// contention, clock changes — is divided out by a calibration loop sampled
// through the run (see calibrate.go).
type meter struct {
	tr *tracer // nil when the run is not traced

	// deadline ends the run: a pass after the first stops at its first
	// step boundary past it.
	deadline time.Time

	setups []float64   // CPU seconds per set-up
	steps  [][]float64 // CPU seconds of each pass's timed steps, in order; NaN for a step not run
	cals   []float64   // thread CPU seconds per calibration loop

	complete   int     // passes run to their end
	passSetups int     // set-ups inside one pass
	workers    int     // when > 0, a pass's steps run on this many workers
	passOps    float64 // simulated work completed by the steps of the first pass
	heapPeak   uint64  // bytes, max live heap sampled

	// layer holds the per-layer counters of the last complete pass.
	layer map[string]float64

	// State of the pass in progress.
	inPass    bool
	pass      []entry            // its checked results
	passLayer map[string]float64 // its per-layer counters
	spanIdx   int                // its span, -1 if none

	calMu   sync.Mutex // guards cals and lastCal while suite workers run
	lastCal time.Time
	heapMu  sync.Mutex // guards heapPeak while suite workers run

	// runtime sums the Go runtime's counter deltas over the complete
	// passes; rt0 is the snapshot at the start of the pass in progress.
	runtime, rt0 runtimeStats
}

// entry is one checked simulated result: a step's statistics digest, or an
// experiment's CSV hash in suite-quick.
type entry struct {
	name, digest string
}

func newMeter(tr *tracer) *meter { return &meter{tr: tr, spanIdx: -1} }

// processCPU reports the CPU time every thread of the process has used:
// the simulation's goroutine and the collector's workers.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU reports the CPU time the calling OS thread has used; callers
// lock their goroutine to the thread around the interval they measure.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads a Linux CPU-time clock. Unlike getrusage, which reports
// a running thread's time as of its last scheduler tick, clock_gettime
// brings the running thread's time up to date first.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// timed runs fn and returns the process CPU seconds it took. In a traced
// run fn carries the profiler label the layer fold keeps, so the
// benchmark's own checks and drains stay out of the per-layer shares;
// goroutines fn starts inherit the label.
func (m *meter) timed(fn func()) float64 {
	c0 := processCPU()
	if m.tr == nil {
		fn()
	} else {
		pprof.Do(context.Background(), pprof.Labels(profileLabel, "timed"), func(context.Context) { fn() })
	}
	return (processCPU() - c0).Seconds()
}

// setup times fn as one set-up sample and returns its CPU seconds; inside
// a pass it counts toward the pass's cost.
func (m *meter) setup(name string, fn func()) float64 {
	t0 := time.Now()
	cpu := m.timed(fn)
	m.tr.add(name, t0, time.Since(t0), m.spanIdx)
	m.setups = append(m.setups, cpu)
	if m.inPass && m.complete == 0 {
		m.passSetups++
	}
	return cpu
}

// step times fn as one timed step that completed ops units of simulated
// work.
func (m *meter) step(name string, fn func() (ops uint64)) {
	t0 := time.Now()
	var ops uint64
	cpu := m.timed(func() { ops = fn() })
	m.tr.add(name, t0, time.Since(t0), m.spanIdx)
	m.addStep(cpu, ops)
}

// addStep records a step's CPU seconds (NaN for a step the pass did not
// run) and, at the step boundary, takes a calibration sample if one is due.
func (m *meter) addStep(cpu float64, ops uint64) {
	last := len(m.steps) - 1
	m.steps[last] = append(m.steps[last], cpu)
	if m.complete == 0 {
		m.passOps += float64(ops)
	}
	m.calibrateIfDue()
}

// expired reports whether the pass in progress should stop: it is not the
// first pass, and the run's deadline has passed.
func (m *meter) expired() bool { return m.complete > 0 && time.Now().After(m.deadline) }

// typicalSteps returns, for each step position of a pass, the median of
// its CPU seconds over the passes that ran it. Every pass repeats the same
// simulated work, so the median drops a host stall that hit one pass.
func (m *meter) typicalSteps() []float64 {
	if len(m.steps) == 0 {
		return nil
	}
	out := make([]float64, len(m.steps[0]))
	var at []float64
	for i := range out {
		at = at[:0]
		for _, pass := range m.steps {
			if i < len(pass) && !math.IsNaN(pass[i]) {
				at = append(at, pass[i])
			}
		}
		out[i] = median(at)
	}
	return out
}

// passCost returns the CPU seconds of a typical pass: its set-ups at their
// median and its steps at their typical cost, one after another or, when
// the pass runs them on several workers, list-scheduled onto those in
// order. A pass cut short by the deadline still counts for the steps it
// ran.
func (m *meter) passCost() float64 {
	steps := m.typicalSteps()
	c := sumOf(steps)
	if m.workers > 0 {
		c = makespan(steps, m.workers)
	}
	if m.passSetups > 0 {
		c += float64(m.passSetups) * median(m.setups)
	}
	return c
}

// calibrateIfDue takes a calibration sample when the last one is more than
// a quarter second old, unless another goroutine is taking one. Suite
// workers call it between units, so the samples see the same contention
// from the other worker as the units do.
func (m *meter) calibrateIfDue() {
	if !m.calMu.TryLock() {
		return
	}
	defer m.calMu.Unlock()
	if time.Since(m.lastCal) > 250*time.Millisecond {
		m.cals = append(m.cals, calibrate())
		m.lastCal = time.Now()
	}
}

// calibrate takes one calibration sample.
func (m *meter) calibrate() {
	m.calMu.Lock()
	defer m.calMu.Unlock()
	m.cals = append(m.cals, calibrate())
	m.lastCal = time.Now()
}

// sampleHeapAfterGC collects garbage and then samples the live heap, at a
// point where the workload's simulated system is still reachable. Without
// the collection the sample is only as fresh as the last GC cycle the run
// happened to trigger, which varies from run to run.
func (m *meter) sampleHeapAfterGC() {
	runtime.GC()
	if h := liveHeap(); h > m.heapPeak {
		m.heapPeak = h
	}
}

// sampleHeapIfPeak is sampleHeapAfterGC for the suite's workers, called as
// each unit returns. It collects only when the heap's objects, live or
// not yet swept, exceed the peak so far, since only then can the live heap
// set a new peak; and it skips when the other worker is already sampling.
func (m *meter) sampleHeapIfPeak() {
	if !m.heapMu.TryLock() {
		return
	}
	defer m.heapMu.Unlock()
	if heapObjects() > m.heapPeak {
		m.sampleHeapAfterGC()
	}
}

// verify runs fn, a workload's check of its simulated state, and moves the
// run's deadline by the time it took: checking is not measuring, and
// gups-64p's invariant sweep, about 10 s, would otherwise leave little of
// the budget for a second pass.
func (m *meter) verify(fn func() error) error {
	t0 := time.Now()
	err := fn()
	m.deadline = m.deadline.Add(time.Since(t0))
	return err
}

// record appends one checked result of the current pass.
func (m *meter) record(name, digest string) {
	m.pass = append(m.pass, entry{name, digest})
}

// beginPass opens a pass span and starts its runtime accounting.
func (m *meter) beginPass(name string) {
	m.inPass = true
	m.steps = append(m.steps, nil)
	m.pass = nil
	m.passLayer = map[string]float64{}
	m.rt0 = readRuntime()
	m.spanIdx = m.tr.add(name, time.Now(), 0, -1)
}

// endPass closes the pass. A complete pass's per-layer counters and
// runtime deltas are kept; a pass the deadline cut short only adds its
// steps.
func (m *meter) endPass(complete bool) {
	m.inPass = false
	m.tr.finish(m.spanIdx, time.Now())
	m.spanIdx = -1
	if !complete {
		return
	}
	m.complete++
	m.layer = m.passLayer
	rt := readRuntime()
	m.runtime.allocBytes += rt.allocBytes - m.rt0.allocBytes
	m.runtime.allocObjects += rt.allocObjects - m.rt0.allocObjects
	m.runtime.gcCycles += rt.gcCycles - m.rt0.gcCycles
	m.runtime.gcCPU += rt.gcCPU - m.rt0.gcCPU
	m.runtime.totalCPU += rt.totalCPU - m.rt0.totalCPU
}

// scale converts this run's CPU seconds into reference seconds: the time
// the work would take on a host running the calibration loop at the
// reference speed.
func (m *meter) scale() float64 { return calReference / median(m.cals) }

// digest folds simulated statistics into a 64-bit FNV-1a hash, rendered
// as 16 hex digits.
func digest(vals ...uint64) string {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}
