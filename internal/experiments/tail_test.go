package experiments

import "testing"

// TestTailSaturShape checks the distribution columns: quantiles ordered
// within every row, both classes populated, and at the deepest-saturation
// point the criticality arbiter holds the demand tail at or below the
// background tail it sacrifices.
func TestTailSaturShape(t *testing.T) {
	tab := quickTable(t, "tail-satur")
	arb := column(t, tab, "arbitration")
	p50, p95, p99, p999 := column(t, tab, "p50 ns"), column(t, tab, "p95 ns"), column(t, tab, "p99 ns"), column(t, tab, "p99.9 ns")
	demand, bg := column(t, tab, "demand p99 ns"), column(t, tab, "bg p99 ns")
	var critTop []string
	for _, r := range tab.Rows {
		q50, q95, q99, q999 := parse(t, r[p50]), parse(t, r[p95]), parse(t, r[p99]), parse(t, r[p999])
		if !(q50 > 0 && q50 <= q95 && q95 <= q99 && q99 <= q999) {
			t.Errorf("row %v quantiles out of order", r)
		}
		if parse(t, r[demand]) <= 0 || parse(t, r[bg]) <= 0 {
			t.Errorf("row %v missing a per-class tail", r)
		}
		if r[arb] == "crit" {
			critTop = r
		}
	}
	if critTop == nil {
		t.Fatal("no crit rows")
	}
	if d, b := parse(t, critTop[demand]), parse(t, critTop[bg]); d > b {
		t.Errorf("saturated crit row: demand p99 %.1f above background p99 %.1f", d, b)
	}
}

// TestTailDegradedStretchesTail pins what the fault sweep is for: at the
// same offered load, losing cables moves p99 at least as much as it moves
// the mean — the tail feels detour queueing first.
func TestTailDegradedStretchesTail(t *testing.T) {
	healthy := quickTable(t, "tail-satur")
	degraded := quickTable(t, "tail-degraded")
	// Compare the fifo mid-rate point (same seed either side).
	hp99 := cell(t, healthy, "p99 ns", "fifo", "20")
	dp99 := cell(t, degraded, "p99 ns", "fifo", "2", "20")
	if dp99 < hp99 {
		t.Errorf("two-fault p99 %.1f below healthy %.1f at the same load", dp99, hp99)
	}
}

// TestTailMissShape checks the machine-level table: both arbitration
// variants produce valid rows, miss quantiles are ordered, and the median
// miss sits above the open-page DRAM floor.
func TestTailMissShape(t *testing.T) {
	tab := quickTable(t, "tail-miss")
	if len(tab.Rows) != 2 {
		t.Fatalf("quick tail-miss has %d rows, want 2", len(tab.Rows))
	}
	gups := column(t, tab, "GUPS Mup/s")
	p50, p95 := column(t, tab, "miss p50 ns"), column(t, tab, "miss p95 ns")
	p99, p999 := column(t, tab, "miss p99 ns"), column(t, tab, "miss p99.9 ns")
	for _, r := range tab.Rows {
		if parse(t, r[gups]) <= 0 {
			t.Errorf("row %v reports no GUPS throughput", r)
		}
		q50, q95, q99, q999 := parse(t, r[p50]), parse(t, r[p95]), parse(t, r[p99]), parse(t, r[p999])
		if !(q50 > 0 && q50 <= q95 && q95 <= q99 && q99 <= q999) {
			t.Errorf("row %v miss quantiles out of order", r)
		}
		if q50 < 60 {
			t.Errorf("row %v median miss %.1f ns below the DRAM floor", r, q50)
		}
	}
}
