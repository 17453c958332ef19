package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_ops_per_s", Better: "higher", Bound: 0.10}
	// base has a quartile spread of 2% of its median.
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	// noisy has a quartile spread of about 30% of its median.
	noisy := []float64{70, 130, 100, 85, 115, 75, 125, 100, 90, 110}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, base, base, "unchanged"},
		{"5% worse, inside the bound", lower, base, scaled(1.05), "unchanged"},
		{"20% worse", lower, base, scaled(1.20), "regressed"},
		{"20% better", lower, base, scaled(0.80), "improved"},
		{"20% lower throughput", higher, base, scaled(0.80), "regressed"},
		{"20% higher throughput", higher, base, scaled(1.20), "improved"},
		{"worse but spread wider than the bound", lower, noisy, scaled(1.15), "unresolved"},
		{"no data", lower, nil, base, "no data"},
		{"too few pairs", lower, base[:3], scaled(0.5)[:3], "unresolved (3 pairs, need 10)"},
	} {
		if got := verdict(c.d, c.a, c.b).label; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
