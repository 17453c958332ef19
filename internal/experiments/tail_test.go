package experiments

import "testing"

// TestTailSaturShape checks the distribution columns: quantiles ordered
// within every row, both classes populated, and at the deepest-saturation
// point the criticality arbiter holds the demand tail at or below the
// background tail it sacrifices.
func TestTailSaturShape(t *testing.T) {
	tab, err := Run("tail-satur", true)
	if err != nil {
		t.Fatal(err)
	}
	var critTop []string
	for _, r := range tab.Rows {
		p50, p95 := parse(t, r[4]), parse(t, r[5])
		p99, p999 := parse(t, r[6]), parse(t, r[7])
		if !(p50 > 0 && p50 <= p95 && p95 <= p99 && p99 <= p999) {
			t.Errorf("row %v quantiles out of order", r)
		}
		if parse(t, r[8]) <= 0 || parse(t, r[9]) <= 0 {
			t.Errorf("row %v missing a per-class tail", r)
		}
		if r[0] == "crit" {
			critTop = r
		}
	}
	if critTop == nil {
		t.Fatal("no crit rows")
	}
	if demand, bg := parse(t, critTop[8]), parse(t, critTop[9]); demand > bg {
		t.Errorf("saturated crit row: demand p99 %.1f above background p99 %.1f", demand, bg)
	}
}

// TestTailDegradedStretchesTail pins what the fault sweep is for: at the
// same offered load, losing cables moves p99 at least as much as it moves
// the mean — the tail feels detour queueing first.
func TestTailDegradedStretchesTail(t *testing.T) {
	healthy, err := Run("tail-satur", true)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Run("tail-degraded", true)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the fifo mid-rate point (same seed either side).
	pick := func(rows [][]string, withLevel bool, level, rate string) []string {
		for _, r := range rows {
			if r[0] != "fifo" {
				continue
			}
			if withLevel && r[1] != level {
				continue
			}
			ri := 1
			if withLevel {
				ri = 2
			}
			if r[ri] == rate {
				return r[ri:]
			}
		}
		t.Fatalf("no fifo row at rate %s", rate)
		return nil
	}
	h := pick(healthy.Rows, false, "", "20")
	d := pick(degraded.Rows, true, "2", "20")
	hp99, dp99 := parse(t, h[5]), parse(t, d[5])
	if dp99 < hp99 {
		t.Errorf("two-fault p99 %.1f below healthy %.1f at the same load", dp99, hp99)
	}
}

// TestTailMissShape checks the machine-level table: both arbitration
// variants produce valid rows, miss quantiles are ordered, and the median
// miss sits above the open-page DRAM floor.
func TestTailMissShape(t *testing.T) {
	tab, err := Run("tail-miss", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("quick tail-miss has %d rows, want 2", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if parse(t, r[2]) <= 0 {
			t.Errorf("row %v reports no GUPS throughput", r)
		}
		p50, p95 := parse(t, r[3]), parse(t, r[4])
		p99, p999 := parse(t, r[5]), parse(t, r[6])
		if !(p50 > 0 && p50 <= p95 && p95 <= p99 && p99 <= p999) {
			t.Errorf("row %v miss quantiles out of order", r)
		}
		if p50 < 60 {
			t.Errorf("row %v median miss %.1f ns below the DRAM floor", r, p50)
		}
	}
}
