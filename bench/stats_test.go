package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile counts as a tail only with at least ten samples beyond
// it: p90 needs a hundred samples, p50 twenty-one.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n         int
		p         float64
		want      float64
		beyond    int
		supported bool
	}{
		{100, 0.90, 90, 10, true},
		{99, 0.90, 90, 9, false},
		{21, 0.50, 11, 10, true},
		{20, 0.50, 10, 10, true},
		{19, 0.50, 10, 9, false},
		{1000, 0.99, 990, 10, true},
		{1000, 0.999, 999, 1, false},
		{1, 0.90, 1, 0, false},
	}
	for _, c := range cases {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond || supported(beyond) != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond (supported %t), want %g with %d beyond (supported %t)",
				c.n, c.p, v, beyond, supported(beyond), c.want, c.beyond, c.supported)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which is what the acceptance check of the benchmark computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64 // (q3 - q1) / median from statistics.quantiles
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{10, 10.5, 9.5, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3}, (10.325 - 9.85) / 10.05},
		{[]float64{5}, 0},
	}
	for _, c := range cases {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
