package main

import (
	"math"
	"testing"
)

// shuffled returns 1..n in a fixed scrambled order, so the helpers must
// sort before ranking.
func shuffled(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*7919)%n + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n             int
		p50, p90      float64
		tail          float64 // value at tailLevel(n); 0 when no level qualifies
		tailBeyondTen bool
	}{
		{n: 1, p50: 1, p90: 1},
		{n: 5, p50: 3, p90: 5},
		{n: 9, p50: 5, p90: 9},
		{n: 10, p50: 5, p90: 9},
		{n: 11, p50: 6, p90: 10, tail: 1, tailBeyondTen: true},
		{n: 100, p50: 50, p90: 90, tail: 90, tailBeyondTen: true},
		{n: 137, p50: 69, p90: 124, tail: 127, tailBeyondTen: true},
		{n: 400, p50: 200, p90: 360, tail: 390, tailBeyondTen: true},
	} {
		xs := shuffled(c.n)
		if got := percentile(xs, 0.5); got != c.p50 {
			t.Errorf("n=%d: p50 = %v, want %v", c.n, got, c.p50)
		}
		if got := percentile(xs, 0.9); got != c.p90 {
			t.Errorf("n=%d: p90 = %v, want %v", c.n, got, c.p90)
		}
		p, ok := tailLevel(c.n)
		if ok != c.tailBeyondTen {
			t.Errorf("n=%d: tailLevel ok = %v, want %v", c.n, ok, c.tailBeyondTen)
			continue
		}
		if !ok {
			continue
		}
		got := percentile(xs, p)
		if got != c.tail {
			t.Errorf("n=%d: value at tail level %v = %v, want %v", c.n, p, got, c.tail)
		}
		if beyond := float64(c.n) - got; beyond != 10 {
			t.Errorf("n=%d: %v samples beyond the tail level, want 10", c.n, beyond)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(shuffled(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v, want 1, 3", q1, q3)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}
