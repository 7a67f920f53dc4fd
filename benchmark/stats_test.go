package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The reported tail is the highest of p90/p95/p99 with at least ten samples
// beyond it: p90 needs 100 samples, p95 200, p99 1000.
func TestHiPercentile(t *testing.T) {
	for _, c := range []struct {
		n, wantP int
		wantV    float64
	}{
		{99, 50, 50},
		{100, 90, 90},
		{199, 90, 180},
		{200, 95, 190},
		{999, 95, 950},
		{1000, 99, 990},
	} {
		p, v := hiPercentile(seq(c.n))
		if p != c.wantP || v != c.wantV {
			t.Errorf("hiPercentile(1..%d) = p%d %v, want p%d %v", c.n, p, v, c.wantP, c.wantV)
		}
		beyond := c.n - int(v)
		if p != 50 && beyond < 10 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, p, beyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(2, 2, 2) = %v, want 2", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, math.NaN()}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) should be NaN", bad)
		}
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{3.2, 3.9, 3.4, 4.5, 3.6, 3.7, 4.2, 3.8, 3.5, 3.9}, 3.475, 3.75, 3.975},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}
