package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runCompare prints an A/B verdict table for two files of result lines;
// spec is "A,B" and args[0] names the BENCHMARK.json holding the bounds.
func runCompare(spec string, args []string, stdout, stderr io.Writer) int {
	a, b, ok := strings.Cut(spec, ",")
	if !ok || len(args) != 1 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.jsonl,B.jsonl BENCHMARK.json")
		return 2
	}
	defs, err := loadBounds(args[0])
	var ra, rb []result
	if err == nil {
		ra, err = readResults(a)
	}
	if err == nil {
		rb, err = readResults(b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printVerdicts(stdout, defs, ra, rb)
	return 0
}

func loadBounds(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return spec.EndToEnd, nil
}

// readResults reads the JSON result lines of one side, in run order.
func readResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []result
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func printVerdicts(out io.Writer, defs []metricDef, a, b []result) {
	fmt.Fprintf(out, "  %-14s %-32s %-32s %5s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B win", "verdict")
	for _, d := range defs {
		xa, xb := values(a, d.Name), values(b, d.Name)
		v := verdict(d, xa, xb)
		fmt.Fprintf(out, "  %-14s %-32s %-32s %5.2f  %s\n", d.Name, summary(xa), summary(xb), v.winFrac, v.label)
	}
	failed := 0
	for _, r := range append(append([]result(nil), a...), b...) {
		if !r.Correct {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(out, "  %d runs failed their checks; their metrics are not trustworthy\n", failed)
	}
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

type abVerdict struct {
	label   string
	winFrac float64
}

// minPairs is the fewest A/B pairs a verdict may rest on.
const minPairs = 10

// verdict applies the A/B rule: B improved when it wins at least nine
// tenths of the pairs (ties count for neither) and the medians differ by
// more than A's quartile spread; B regressed when its median is worse by
// more than the metric's bound. Either way, a spread of A's own runs wider
// than the bound makes the comparison unresolved, unless every run of B
// beats every run of A.
func verdict(d metricDef, a, b []float64) abVerdict {
	n := min(len(a), len(b))
	if n == 0 {
		return abVerdict{"no data", 0}
	}
	if n < minPairs {
		return abVerdict{fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs), 0}
	}
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	v := abVerdict{winFrac: float64(wins) / float64(n)}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	worse := (mb - ma) / ma // share by which B is worse
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.winFrac >= 0.9 && better(mb, ma) && abs(mb-ma) > iqr:
		v.label = "improved"
	case allBetter:
		v.label = "unchanged"
	case iqr/ma > d.Bound:
		v.label = "unresolved"
	case worse > d.Bound:
		v.label = "regressed"
	default:
		v.label = "unchanged"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
