// Command bench is the repository's benchmark. It runs one workload
// of the GS1280 simulator for a fixed host-time budget, times the calls it
// makes into each layer from outside, checks every simulated result, and
// prints one JSON line of metrics last on standard output.
//
// Build and run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload gups-64p --seed 1 --seconds 23 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports the per-layer metrics from a traced rerun and writes a CPU
// profile, its fold by layer, and the benchmark's spans under --trace-dir.
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	update   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are derived from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "host seconds to measure for (at least one pass runs)")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced rerun instead of end-to-end metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where --trace 1 writes profiles and spans")
	fs.BoolVar(&o.update, "update", false, "rewrite the pin for this workload and seed instead of checking it")
	compare := fs.String("compare", "", "compare two files of result lines (A,B) under the bounds in this BENCHMARK.json")
	list := fs.Bool("list", false, "print the workload names and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		return 0
	}
	if *compare != "" {
		return runCompare(*compare, fs.Args(), stdout, stderr)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	// At most two goroutines run Go code at once: the suite's two runner
	// workers, or one simulation and the collector.
	runtime.GOMAXPROCS(2)
	return runWorkload(w, o, stdout, stderr)
}

// runAll runs every workload in its own process, one at a time, so no
// workload inherits another's heap or warmed runtime.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		child := append([]string{"--workload", w.name}, withoutFlag(args, "workload")...)
		cmd := exec.Command(exe, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// withoutFlag drops -name/--name and its value from args.
func withoutFlag(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(w workloadDef, o options, stdout, stderr io.Writer) int {
	ck := &checker{}
	if !o.update {
		pin, err := loadPin(w.name, o.seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ck.pin = pin
	}
	budget := time.Duration(o.seconds) * time.Second
	var values map[string]float64
	var summary func(io.Writer)
	if o.trace == 0 {
		m := newMeter(nil)
		runPasses(w, m, o.seed, budget, ck)
		values = endToEndValues(m)
		summary = func(out io.Writer) { printEndToEnd(out, m, values) }
	} else {
		var err error
		values, err = tracedRun(w, o, budget, ck, stderr)
		if err != nil {
			ck.fail(err.Error())
		}
		summary = func(out io.Writer) { printPerLayer(out, values) }
	}
	if o.update && ck.failed == 0 {
		if err := writePin(w.name, o.seed, ck.first); err != nil {
			ck.fail(err.Error())
		}
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed,
		Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	for _, d := range defs {
		x := values[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // a run that failed before it measured anything
		}
		res.Metrics[d.Name] = metricValue{x, d.Unit}
	}
	fmt.Fprintf(stderr, "%s seed %d: %d checked, %d failed, fail_frac %.4g, pinned %v\n",
		w.name, o.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), ck.pin != nil)
	for _, p := range ck.problems {
		fmt.Fprintln(stderr, "  FAIL", p)
	}
	summary(stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runPasses repeats passes of w until budget has passed and checks each
// pass's entries. The first pass always runs to its end; a later one stops
// at its first step boundary past the deadline, and the steps it ran still
// count. So a run measures for the whole budget, however the host's speed
// divides it into passes. A failed pass ends the run.
func runPasses(w workloadDef, m *meter, seed uint64, budget time.Duration, ck *checker) {
	m.deadline = time.Now().Add(budget)
	for first := true; first || time.Now().Before(m.deadline); first = false {
		// Each pass starts from a collected heap, so one pass's garbage is
		// not charged to the next pass's steps.
		runtime.GC()
		m.calibrate()
		done := m.complete
		err := safePass(w, m, seed, w.steps)
		ck.pass(m.pass, m.complete > done)
		if err != nil {
			ck.attempted++
			ck.fail(err.Error())
			return
		}
	}
}

// safePass runs one pass and turns a panic in the simulator into an error.
func safePass(w workloadDef, m *meter, seed uint64, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.pass(m, seed, n)
}

// endToEndValues reports the run's end-to-end metrics; times are in
// reference seconds (see meter.scale).
func endToEndValues(m *meter) map[string]float64 {
	k := m.scale()
	steps := m.typicalSteps()
	return map[string]float64{
		"setup_s":       k * median(m.setups),
		"pass_s":        k * m.passCost(),
		"step_ms_p50":   k * 1e3 * percentile(steps, 0.50),
		"step_ms_p90":   k * 1e3 * percentile(steps, 0.90),
		"sim_ops_per_s": m.passOps / (k * m.passCost()),
		"peak_heap_mb":  float64(m.heapPeak) / 1e6,
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func printEndToEnd(out io.Writer, m *meter, v map[string]float64) {
	steps := m.typicalSteps()
	n := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(m.setups)),
		"pass_s":        fmt.Sprintf("%d set-ups and %d typical steps; %d passes, %d complete", m.passSetups, len(steps), len(m.steps), m.complete),
		"step_ms_p50":   fmt.Sprintf("over %d step positions, each the median of up to %d passes", len(steps), len(m.steps)),
		"step_ms_p90":   fmt.Sprintf("over %d step positions", len(steps)),
		"sim_ops_per_s": fmt.Sprintf("%.6g ops per pass", m.passOps),
		"peak_heap_mb":  "max",
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-14s %14.6g %-6s %s\n", d.Name, v[d.Name], d.Unit, n[d.Name])
	}
	if p, ok := tailLevel(len(steps)); ok {
		fmt.Fprintf(out, "  step tail: p%.4g = %.6g ms, the highest percentile with 10 of %d steps beyond it\n",
			100*p, m.scale()*1e3*percentile(steps, p), len(steps))
	}
	fmt.Fprintf(out, "  host speed: calibration loop median %.4g ms CPU (n=%d), scale %.4f to reference seconds\n",
		1e3*median(m.cals), len(m.cals), m.scale())
}

func printPerLayer(out io.Writer, v map[string]float64) {
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// tracedRun measures the workload untraced for half the budget, then again
// under the CPU profiler with spans recorded. The untraced half gives the
// per-layer counters and host times (the profiler coarsens the process CPU
// clock), the traced half the profile's layer shares and the spans, and
// the difference between the halves the tracing overhead.
func tracedRun(w workloadDef, o options, budget time.Duration, ck *checker, stderr io.Writer) (map[string]float64, error) {
	plain := newMeter(nil)
	runPasses(w, plain, o.seed, budget/2, ck)

	dir, err := traceDir(o.traceDir, w.name)
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced := newMeter(tr)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	runPasses(w, traced, o.seed, budget/2, ck)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}

	v := map[string]float64{}
	for k, x := range plain.layer {
		v[k] = x
	}
	pass := plain.passCost()
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = 1e9 * pass / ev
		v["sim.events_per_s"] = ev / pass
	}
	for k, x := range isolatedLoops() {
		v[k] = x
	}
	self, total, foldErr := foldProfile(profPath)
	if foldErr == nil {
		v["profile.samples_s"] = total
		for _, l := range profileLayers {
			if total > 0 {
				v[l+".self_frac"] = self[l] / total
			}
		}
	}
	// Host times so far are CPU seconds of this run; report them, like the
	// end-to-end metrics, in reference seconds.
	k := plain.scale()
	for _, d := range perLayer {
		switch d.Unit {
		case "s", "ms", "ns":
			v[d.Name] *= k
		case "1/s":
			v[d.Name] /= k
		}
	}

	rt := plain.runtime
	passes := float64(plain.complete)
	v["runtime.alloc_mb"] = float64(rt.allocBytes) / passes / 1e6
	v["runtime.allocs_per_op"] = float64(rt.allocObjects) / passes / plain.passOps
	v["runtime.gc_cycles"] = float64(rt.gcCycles) / passes
	if rt.totalCPU > 0 {
		v["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
	untraced, withTrace := k*pass, traced.scale()*traced.passCost()
	v["trace.overhead_s"] = withTrace - untraced
	v["trace.overhead_frac"] = v["trace.overhead_s"] / untraced
	fmt.Fprintf(stderr, "trace: typical pass %.4g s untraced (%d passes), %.4g s traced (%d passes): overhead %+.4g s (%+.2f%%)\n",
		untraced, len(plain.steps), withTrace, len(traced.steps), v["trace.overhead_s"], 100*v["trace.overhead_frac"])

	if foldErr != nil {
		return v, foldErr
	}
	if err := writeFold(filepath.Join(dir, "layers.txt"), self, total); err != nil {
		return v, err
	}
	if err := tr.writeChrome(filepath.Join(dir, "spans.json")); err != nil {
		return v, err
	}
	fmt.Fprintf(stderr, "trace: wrote %s/{cpu.pprof,layers.txt,spans.json}\n", dir)
	return v, nil
}
