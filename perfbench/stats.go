package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even counts); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) gives
// them, so the steadiness report matches the acceptance arithmetic.
// Fewer than two samples give the lone value (or NaN) for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailPermille lists the percentiles a latency report may name, in
// thousandths, lowest first.
var tailPermille = []int{900, 990, 999}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it (nearest-rank), so a reported tail is never one or two
// unlucky requests. ok is false when even p90 has fewer than ten samples
// beyond it.
func tailPercentile(n int) (permille int, ok bool) {
	for _, p := range tailPermille {
		rank := (n*p + 999) / 1000 // ceil(n*p/1000)
		if n-rank >= 10 {
			permille, ok = p, true
		}
	}
	return permille, ok
}

// percentile is the nearest-rank percentile (permille thousandths) of xs.
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := (len(s)*permille + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileName renders 900 as "p90" and 999 as "p99.9".
func percentileName(permille int) string {
	if permille%10 == 0 {
		return "p" + strconv.Itoa(permille/10)
	}
	return "p" + strconv.Itoa(permille/10) + "." + strconv.Itoa(permille%10)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
