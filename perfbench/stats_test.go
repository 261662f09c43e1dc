package main

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2.5, 7.25}, 1.3125, 4.875, 8.4375},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string // "" = none
	}{
		{0, ""}, {19, ""}, {99, ""},
		{100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"},
		{10000, "p99.9"}, {1000000, "p99.9"},
	} {
		p, ok := tailPercentile(c.n)
		got := ""
		if ok {
			got = percentileName(p)
			rank := (c.n*p + 999) / 1000
			if c.n-rank < 10 {
				t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, got, c.n-rank)
			}
		}
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 500); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
