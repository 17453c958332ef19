package experiments

import (
	"testing"
)

// saturRows splits a satur-* table's rows by routing variant, preserving
// sweep order.
func saturRows(t *testing.T, tab *Table) (adaptive, deterministic [][]string) {
	t.Helper()
	routing := column(t, tab, "routing")
	for _, r := range tab.Rows {
		switch r[routing] {
		case "adaptive":
			adaptive = append(adaptive, r)
		case "deterministic":
			deterministic = append(deterministic, r)
		default:
			t.Fatalf("unknown routing variant %q", r[routing])
		}
	}
	if len(adaptive) == 0 || len(deterministic) == 0 {
		t.Fatalf("missing a routing variant: %d adaptive, %d deterministic rows",
			len(adaptive), len(deterministic))
	}
	return adaptive, deterministic
}

// TestSaturTransposeCurveShape pins the acceptance shape of the
// saturation sweeps on the adversarial pattern: latency is monotone
// nondecreasing in offered load for both routings, and near saturation
// adaptive routing clearly beats the deterministic escape path on both
// delivered throughput and latency.
func TestSaturTransposeCurveShape(t *testing.T) {
	tab := quickTable(t, "satur-transpose")
	rate, bw, lat := column(t, tab, "offered pkts/node/us"), column(t, tab, "delivered MB/s"), column(t, tab, "avg latency ns")
	adaptive, det := saturRows(t, tab)
	for _, rows := range [][][]string{adaptive, det} {
		for i := 1; i < len(rows); i++ {
			prev, cur := parse(t, rows[i-1][lat]), parse(t, rows[i][lat])
			if cur < prev*0.97 {
				t.Errorf("latency not monotone: %.1f ns at rate %s after %.1f ns at %s",
					cur, rows[i][rate], prev, rows[i-1][rate])
			}
		}
	}
	lastA, lastD := adaptive[len(adaptive)-1], det[len(det)-1]
	if bwA, bwD := parse(t, lastA[bw]), parse(t, lastD[bw]); bwA < 1.3*bwD {
		t.Errorf("adaptive delivered %.0f MB/s near saturation, want >= 1.3x deterministic %.0f",
			bwA, bwD)
	}
	if latA, latD := parse(t, lastA[lat]), parse(t, lastD[lat]); latA > latD {
		t.Errorf("adaptive latency %.0f ns above deterministic %.0f near saturation", latA, latD)
	}
}

// TestSaturUniformSaturates checks the open-loop bookkeeping on uniform
// traffic: low load is fully accepted at near-zero-load latency, top load
// is rejected at the source queues, and utilization grows with load.
func TestSaturUniformSaturates(t *testing.T) {
	tab := quickTable(t, "satur-uniform")
	lat, acc, util := column(t, tab, "avg latency ns"), column(t, tab, "accepted %"), column(t, tab, "avg util %")
	adaptive, _ := saturRows(t, tab)
	first, last := adaptive[0], adaptive[len(adaptive)-1]
	if a := parse(t, first[acc]); a < 99.9 {
		t.Errorf("low load accepted %.1f%%, want ~100", a)
	}
	if a := parse(t, last[acc]); a > 95 {
		t.Errorf("top load accepted %.1f%%, expected saturation", a)
	}
	if u0, u1 := parse(t, first[util]), parse(t, last[util]); u1 <= u0 {
		t.Errorf("utilization did not grow with load: %.1f%% -> %.1f%%", u0, u1)
	}
	if parse(t, last[lat]) < 2*parse(t, first[lat]) {
		t.Errorf("top-load latency %s ns did not clearly exceed low-load %s ns", last[lat], first[lat])
	}
}

// TestFig1617AdaptivityWins pins the matrix's headline: on the transpose
// permutation the adaptive torus beats the escape-only torus, while on
// uniform traffic the two are comparable (path diversity matters only
// when the pattern folds load onto few paths).
func TestFig1617AdaptivityWins(t *testing.T) {
	tab := quickTable(t, "fig16x17")
	const adaptive, escape, shuffle = "torus-adaptive ns", "torus-escape ns", "shuffle-2hop ns"
	if a, e := cell(t, tab, adaptive, "transpose"), cell(t, tab, escape, "transpose"); e < 2*a {
		t.Errorf("transpose: escape latency %.0f ns not >> adaptive %.0f ns", e, a)
	}
	if a, e := cell(t, tab, adaptive, "uniform"), cell(t, tab, escape, "uniform"); e > 2*a {
		t.Errorf("uniform: escape latency %.0f ns unexpectedly >> adaptive %.0f ns", e, a)
	}
	// The shuffle wiring must not lose to the plain torus on the hotspot
	// pattern (its chords bypass the contended center rows).
	if s, e := cell(t, tab, shuffle, "hotspot"), cell(t, tab, escape, "hotspot"); s > e {
		t.Errorf("hotspot: shuffle latency %.0f ns above torus-escape %.0f ns", s, e)
	}
}
