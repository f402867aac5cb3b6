// Package telemetry is the observability layer of the serving stack:
// log-bucketed latency histograms with tail-percentile estimation, a
// minimal Prometheus-style metrics registry, and a per-request tracer
// with nested spans. The paper's core contribution is a latency
// *characterization* (Figs 7-9) and tail-driven provisioning (§6);
// this package is what lets the reproduction measure itself the same
// way — p99s and stage breakdowns, not means.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The bucket layout is fixed for every histogram in the process:
// numBuckets exponential buckets growing by sqrt(2) from 1µs, covering
// 1µs .. ~50min, plus one overflow bucket. A fixed layout is what lets
// two bucket snapshots diff element-wise (the autoscaler's windows)
// and every binary's /metrics share one le set.
const numBuckets = 64

// bucketBounds[i] is the inclusive upper bound of bucket i.
var bucketBounds [numBuckets]time.Duration

func init() {
	b := float64(time.Microsecond)
	for i := range bucketBounds {
		bucketBounds[i] = time.Duration(b)
		b *= math.Sqrt2
	}
}

// Histogram is a concurrency-safe log-bucketed latency histogram.
// Observe is lock-free (atomic adds), so it is cheap enough to sit on
// the serving hot path. Quantiles are estimated by linear interpolation
// within the covering bucket, so their relative error is bounded by the
// bucket growth factor (sqrt(2), i.e. at most ~41%, typically far
// less); Count, Sum, Mean and Max are exact. The zero value is ready to
// use.
type Histogram struct {
	counts [numBuckets + 1]atomic.Uint64 // last bucket is overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds

	// exemplars[i] is the most recent traced observation that landed in
	// bucket i (nil until one does). Stored unconditionally on
	// ObserveTrace; exported only for upper-decile buckets.
	exemplars [numBuckets + 1]atomic.Pointer[exemplar]
}

// exemplar ties a histogram bucket back to a concrete request: the most
// recent trace ID observed in that bucket, with its exact value — the
// link from "the p99 is 800ms" to "here is an 800ms request to stare
// at" (OpenMetrics exemplars on /metrics, which /debug/traces resolves).
type exemplar struct {
	traceID string
	value   time.Duration
	at      time.Time
}

func bucketFor(d time.Duration) int {
	return sort.Search(numBuckets, func(i int) bool { return d <= bucketBounds[i] })
}

// Observe records one latency sample. Negative samples are clamped to 0.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// ObserveTrace records one latency sample attributed to a trace ID,
// retaining it as the bucket's exemplar. Empty trace IDs degrade to a
// plain Observe.
func (h *Histogram) ObserveTrace(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID == "" {
		return
	}
	if d < 0 {
		d = 0
	}
	h.exemplars[bucketFor(d)].Store(&exemplar{traceID: traceID, value: d, at: time.Now()})
}

// exemplarFloor returns the first bucket index whose observations lie
// at or above the q-th quantile — the cutoff below which exemplars are
// not exported. Returns len(cum) (nothing qualifies) when empty.
func exemplarFloor(cum *[numBuckets + 1]uint64, q float64) int {
	total := cum[numBuckets]
	if total == 0 {
		return numBuckets + 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	for i, c := range cum {
		if c >= target {
			return i
		}
	}
	return numBuckets + 1
}

// countAtOrBelow returns the number of observations known to be ≤ d:
// the cumulative count of whole buckets whose upper bound is ≤ d. The
// covering bucket counts as above, so the answer is conservative — an
// SLO computed from it never over-reports compliance.
func (h *Histogram) countAtOrBelow(d time.Duration) uint64 {
	var n uint64
	for i := range bucketBounds {
		if bucketBounds[i] > d {
			break
		}
		n += h.counts[i].Load()
	}
	return n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// maxObserved returns the exact largest observation (0 if empty).
func (h *Histogram) maxObserved() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-th quantile (q in [0,1]) by interpolating
// within the covering bucket. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [numBuckets + 1]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileFrom(counts[:], total, q, h.maxObserved())
}

func quantileFrom(counts []uint64, total uint64, q float64, max time.Duration) time.Duration {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		if cum+c < target {
			cum += c
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := max
		if i < numBuckets && bucketBounds[i] < hi {
			hi = bucketBounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := (float64(target-cum) - 0.5) / float64(c)
		v := lo + time.Duration(frac*float64(hi-lo))
		if v > max {
			v = max
		}
		return v
	}
	return max
}

// Summary is a point-in-time digest of a histogram: exact count, sum,
// mean and max, plus the estimated tail percentiles the paper's
// provisioning argument runs on.
type Summary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// Summarize digests the histogram in one pass over the buckets.
func (h *Histogram) Summarize() Summary {
	var counts [numBuckets + 1]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	max := h.maxObserved()
	s := Summary{Count: total, Max: max}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(uint64(h.sum.Load()) / total)
	s.P50 = quantileFrom(counts[:], total, 0.50, max)
	s.P90 = quantileFrom(counts[:], total, 0.90, max)
	s.P95 = quantileFrom(counts[:], total, 0.95, max)
	s.P99 = quantileFrom(counts[:], total, 0.99, max)
	s.P999 = quantileFrom(counts[:], total, 0.999, max)
	return s
}

// cumulative returns the cumulative bucket counts paired with
// bucketBounds, plus the overflow total — the Prometheus histogram
// exposition shape.
func (h *Histogram) cumulative() (cum [numBuckets + 1]uint64) {
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum
}

// bucketCounts returns a snapshot of the raw per-bucket counts: one entry
// per finite bucket (index-aligned with BucketBounds) plus a final
// overflow entry. Because the layout is fixed and counts only grow,
// two snapshots diff element-wise into the observations of the
// interval between them — the feed an autoscaler's rate/latency
// windows are built from.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, numBuckets+1)
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// QuantileOfCounts estimates the q-th quantile of a raw bucket-count
// snapshot shaped like a HistogramVec.Counts value (finite buckets then
// overflow) — for example the diff of two such snapshots. Interpolation
// matches Histogram.Quantile, except the exact max is unknown here so
// overflow observations resolve to the largest finite bound.
func QuantileOfCounts(counts []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	return quantileFrom(counts, total, q, bucketBounds[numBuckets-1])
}

// BucketBounds exposes the fixed layout (upper bounds of the finite
// buckets), for documentation and tests.
func BucketBounds() []time.Duration {
	out := make([]time.Duration, numBuckets)
	copy(out, bucketBounds[:])
	return out
}
