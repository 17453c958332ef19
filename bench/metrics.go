package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the host-time budget of one run, as BENCHMARK.json gives
// it.
const runSeconds = 23

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. A step is a suite unit, a machine slice or a fabric point.
// A bound must hold every workload's run-to-run spread, and the drift
// between sets of runs made minutes apart, since a benchmark whose own
// runs disagree by more than a bound cannot judge a change by it. On a
// quiet host the spreads stay within 5% but for the suite's step
// percentiles and heap (up to 10%); while the hypervisor stole 38% of the
// CPU, the fabrics' spreads reached 14% (19% at p90) and their medians
// drifted by up to 15% (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.15},
	{"step_ms_p50", "ms", "lower", 0.15},
	{"step_ms_p90", "ms", "lower", 0.20},
	{"sim_ops_per_s", "ops/s", "higher", 0.15},
	{"peak_heap_mb", "MB", "lower", 0.15},
}

// suiteExperiments are the quick-suite experiments whose units took more
// than 100 ms of work when the benchmark was defined; each gets a work_ms
// row in the traced run.
var suiteExperiments = []string{"fig4", "fig5", "fig6", "fig7", "fig15", "fig16x17", "fig18",
	"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig26", "fig28", "satur-uniform",
	"satur-transpose", "satur-hotspot", "degraded-satur", "tail-satur", "tail-degraded",
	"tail-miss", "flaky-satur", "flaky-quarantine", "ablation"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{{"profile.samples_s", "s", "lower", 0}}
	for _, l := range profileLayers {
		d = append(d, metricDef{l + ".self_frac", "frac", "lower", 0})
	}
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit, better, 0})
		}
	}
	add("higher", "count", "sim.events")
	add("lower", "ns", "sim.ns_per_event")
	add("higher", "1/s", "sim.events_per_s")
	add("lower", "count", "sim.pending_peak")
	add("higher", "count", "network.packets", "network.hops")
	add("higher", "frac", "network.link_util_avg")
	add("lower", "sim_ns", "network.pkt_lat_p99_ns", "network.queue_res_p99_ns")
	add("lower", "count", "network.retransmits", "network.dropped_hops", "network.ack_msgs",
		"network.reroutes", "network.nonmin_hops")
	add("higher", "frac", "network.goodput_frac")
	add("lower", "ms", "topology.build_ms", "network.build_ms", "machine.build_ms")
	add("lower", "count", "coherence.misses", "coherence.read_dirty", "coherence.naks",
		"coherence.retries", "coherence.victims")
	add("lower", "frac", "coherence.nak_frac")
	add("lower", "sim_ns", "coherence.miss_lat_p50_ns", "coherence.miss_lat_p99_ns")
	add("higher", "count", "cache.l1_hits", "cache.l2_hits")
	add("higher", "frac", "cache.hit_frac")
	add("higher", "count", "memctrl.reads", "memctrl.writes")
	add("higher", "frac", "memctrl.page_hit_frac", "memctrl.util_avg")
	add("higher", "count", "cpu.ops")
	add("lower", "sim_ns", "cpu.avg_lat_ns")
	add("higher", "count", "traffic.offered")
	add("higher", "frac", "traffic.accepted_frac")
	add("lower", "MB", "runtime.alloc_mb")
	add("lower", "count", "runtime.allocs_per_op", "runtime.gc_cycles")
	add("lower", "frac", "runtime.gc_cpu_frac")
	add("higher", "count", "runner.units")
	add("lower", "s", "runner.work_s", "runner.critical_path_s")
	add("higher", "frac", "runner.parallel_eff")
	for _, id := range suiteExperiments {
		add("lower", "ms", "experiments."+id+".work_ms")
	}
	add("lower", "ns", "sim.churn_ns", "cache.access_ns", "memctrl.access_ns", "topology.nexthops_ns")
	add("lower", "s", "trace.overhead_s")
	add("lower", "frac", "trace.overhead_frac")
	return d
}()
