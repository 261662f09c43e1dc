package main

import "testing"

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10}
	noisy := []float64{10, 13, 8, 12, 7, 11, 9, 14, 6, 10}
	for _, c := range []struct {
		name         string
		base, change []float64
		better       string
		bound        float64
		want         string
	}{
		{"faster on every pair", steady, scale(steady, 0.8), "lower", 0.1, improved},
		{"higher throughput on every pair", steady, scale(steady, 1.2), "higher", 0.1, improved},
		{"slower beyond the bound", steady, scale(steady, 1.3), "lower", 0.1, regressed},
		{"lower throughput beyond the bound", steady, scale(steady, 0.7), "higher", 0.1, regressed},
		{"unchanged", steady, steady, "lower", 0.1, withinBound},
		{"slower within the bound", steady, scale(steady, 1.05), "lower", 0.1, withinBound},
		{"spread wider than the bound", noisy, noisy, "lower", 0.1, unresolved},
		// Wins every pair, but by less than the base's own spread.
		{"gain inside the base spread", noisy, scale(noisy, 0.97), "lower", 0.5, withinBound},
	} {
		if got := compareMetric(c.base, c.change, c.better, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareWinsCountTiesForNeither(t *testing.T) {
	base := []float64{1, 1, 1, 1}
	change := []float64{0.5, 1, 1, 2}
	if got := compareMetric(base, change, "lower", 1).wins; got != 0.25 {
		t.Errorf("wins = %v, want 0.25", got)
	}
}

func TestRowVerdict(t *testing.T) {
	for _, c := range []struct {
		vs   []string
		want string
	}{
		{[]string{withinBound, improved}, improved},
		{[]string{improved, unresolved}, unresolved},
		{[]string{improved, unresolved, regressed}, regressed},
		{[]string{withinBound, withinBound}, withinBound},
	} {
		if got := rowVerdict(c.vs); got != c.want {
			t.Errorf("rowVerdict(%v) = %q, want %q", c.vs, got, c.want)
		}
	}
}
