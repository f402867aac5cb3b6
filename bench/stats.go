package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// counts as supported: fewer and the value is one or two outliers, not a
// tail. On this box p90 repeats within a tenth and p95/p99 do not, which
// is why the gated tail is p90.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice, with the number of samples strictly beyond it. An
// empty slice gives (0, 0).
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	return sorted[idx], n - 1 - idx
}

// supported reports whether a percentile with this many samples beyond
// it may be printed as a tail.
func supported(beyond int) bool { return beyond >= minBeyond }

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// p50 and p90 are the two percentiles the gated metrics use.
func p50(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.50)
	return v
}

func p90(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.90)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile
// over the median (the rule -compare and the noise-floor table use),
// with quartiles as Python's statistics.quantiles(n=4) defines them
// (exclusive method). Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
