package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

// span is one timed call into a layer: a pass, a set-up, a step or a suite
// unit. parent indexes spans (-1 for a root).
type span struct {
	name       string
	start, dur time.Duration // relative to the tracer's origin
	parent     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start time.Time, dur time.Duration, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), dur: dur, parent: parent})
	return len(t.spans) - 1
}

// finish ends at end a span opened with a zero duration.
func (t *tracer) finish(i int, end time.Time) {
	if t != nil && i >= 0 {
		t.spans[i].dur = end.Sub(t.origin) - t.spans[i].start
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open. Overlapping siblings (suite units on two
// workers) go on separate rows so the viewer nests them correctly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	lanes := assignLanes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: lanes[i],
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// assignLanes puts each span on its parent's lane unless an earlier
// sibling on that lane is still open, in which case it takes the next free
// lane. Roots use lane 0.
func assignLanes(spans []span) []int {
	lanes := make([]int, len(spans))
	busyUntil := map[int]time.Duration{}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	for _, i := range order {
		s := spans[i]
		if s.parent < 0 {
			continue
		}
		lane := lanes[s.parent]
		for busyUntil[lane] > s.start {
			lane++
		}
		lanes[i] = lane
		busyUntil[lane] = s.start + s.dur
	}
	return lanes
}

// layerOf maps a profiled function to the simulator layer whose package
// holds it: the package under gs1280/internal, "runtime" for the Go
// runtime, and "other" for everything else (the benchmark, workloads,
// experiment assembly, the standard library).
func layerOf(fn string) string {
	path := fn
	if i := strings.IndexAny(path, "(["); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(path, "gs1280/internal/"); ok {
		if layer, _, _ := strings.Cut(rest, "/"); isLayer(layer) {
			return layer
		}
		return "other"
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileLayers are the layers a CPU profile is folded into.
var profileLayers = []string{"sim", "network", "topology", "coherence", "cache", "memctrl",
	"cpu", "traffic", "stats", "runtime", "other"}

func isLayer(name string) bool {
	for _, l := range profileLayers[:len(profileLayers)-2] {
		if l == name {
			return true
		}
	}
	return false
}

// foldProfile runs `go tool pprof -top` on the timed samples of a CPU
// profile and sums each function's flat (self) time into its layer. It
// returns seconds per layer and the total sampled seconds.
func foldProfile(profile string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms",
		"-tagfocus="+profileLabel+"=timed", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v", err)
	}
	return parseTop(string(out))
}

// parseTop folds `pprof -top -unit=ms` output. Rows follow the header line
// "flat flat% sum% cum cum%" and end with the function name.
func parseTop(out string) (map[string]float64, float64, error) {
	self := map[string]float64{}
	total := 0.0
	inRows := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		self[layerOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if !inRows {
		return nil, 0, fmt.Errorf("pprof printed no rows:\n%s", out)
	}
	for l := range self {
		self[l] /= 1e3
	}
	return self, total / 1e3, nil
}

// writeFold writes the per-layer fold as text next to the profile.
func writeFold(path string, self map[string]float64, total float64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# self time by layer, %.3f s sampled\n", total)
	for _, l := range profileLayers {
		frac := 0.0
		if total > 0 {
			frac = self[l] / total
		}
		fmt.Fprintf(&b, "%-10s %8.3f s  %6.2f%%\n", l, self[l], 100*frac)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func traceDir(dir, workload string) (string, error) {
	d := filepath.Join(dir, workload)
	return d, os.MkdirAll(d, 0o755)
}
