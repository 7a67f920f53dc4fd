package main

import (
	"math"
	"sort"
)

// median returns the middle sample (mean of the two middle ones for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hiPercentile returns the highest of p99/p95/p90 (nearest rank) that still
// has at least ten samples beyond it, and which percentile that is. With
// fewer than 100 samples no tail is supported and it reports the median as
// p50.
func hiPercentile(xs []float64) (p int, v float64) {
	n := len(xs)
	if n == 0 {
		return 50, math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90} {
		idx := (p*n+99)/100 - 1 // nearest rank: ceil(p/100·n) − 1
		if n-1-idx >= 10 {
			return p, s[idx]
		}
	}
	return 50, median(s)
}

// geomean is the geometric mean of positive values; NaN if any is missing
// or not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the PR driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may leave [0,4]: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
