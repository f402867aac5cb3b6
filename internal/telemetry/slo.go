package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// SLO tracks a latency objective ("99% of queries under 500ms") against
// an existing histogram family and computes multi-window burn rates: a
// burn rate of 1.0 means the error budget (1 - objective) is being
// consumed exactly as fast as it accrues; 10x means ten times faster.
// Multi-window burn is the standard SRE paging signal — a fast window
// catches a cliff, a slow window catches a leak — and it falls out of
// the histograms the serving stack already keeps: no new per-request
// state, just periodic (total, good) samples diffed per window.
//
// "Good" is conservative: only observations in whole buckets whose
// upper bound is ≤ the target count (see Histogram.countAtOrBelow), so
// compliance is never over-reported.
type SLO struct {
	target time.Duration
	source func() (total, good uint64)

	mu      sync.Mutex
	samples []sloSample // time-ordered, ≥ sampleEvery apart
}

type sloSample struct {
	at          time.Time
	total, good uint64
}

// sloObjective is the share of requests that must meet the target,
// everywhere an SLO is kept.
const sloObjective = 0.99

// sampleEvery bounds how often a new burn-rate baseline sample is
// appended; reads between ticks reuse the ring. With the default
// windows the ring stays under ~4k samples.
const sampleEvery = time.Second

// sloWindows are the burn-rate windows, shortest first. The labels are
// the window= label values on sirius_slo_burn_rate.
var sloWindows = []struct {
	label string
	d     time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"30m", 30 * time.Minute},
	{"1h", time.Hour},
}

// NewSLOFromVec builds an SLO over a latency histogram family: total is
// every observation across children, good those at or below target.
func NewSLOFromVec(v *HistogramVec, target time.Duration) *SLO {
	if target <= 0 {
		target = 500 * time.Millisecond
	}
	s := &SLO{target: target}
	s.source = func() (uint64, uint64) { return v.totalAndBelow(s.target) }
	return s
}

// Configure replaces the latency target — startup configuration
// (-slo-target), before the SLO is read concurrently. A target <= 0
// keeps the current one.
func (s *SLO) Configure(target time.Duration) {
	if target > 0 {
		s.target = target
	}
}

// Objective returns the compliance objective in (0,1).
func (s *SLO) Objective() float64 { return sloObjective }

// SLOSnapshot is a point-in-time view of the objective, served on /slo
// and mirrored by the sirius_slo_* gauges.
type SLOSnapshot struct {
	TargetMS        float64            `json:"target_ms"`
	Objective       float64            `json:"objective"`
	Total           uint64             `json:"total"`
	Good            uint64             `json:"good"`
	Bad             uint64             `json:"bad"`
	Compliance      float64            `json:"compliance"`
	BudgetRemaining float64            `json:"budget_remaining"`
	Burn            map[string]float64 `json:"burn_rate"`
}

// Snapshot samples the source and computes compliance, remaining error
// budget (1.0 = untouched, 0 = exhausted, negative = overspent) and
// per-window burn rates. Windows older than the process use a zero
// baseline, so a young process reports its all-time burn — short bench
// runs still see meaningful values.
func (s *SLO) Snapshot() SLOSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.sampleLocked()
	snap := SLOSnapshot{
		TargetMS:        float64(s.target) / float64(time.Millisecond),
		Objective:       sloObjective,
		Total:           now.total,
		Good:            now.good,
		Bad:             now.total - now.good,
		Compliance:      1,
		BudgetRemaining: 1,
		Burn:            map[string]float64{},
	}
	budget := 1 - sloObjective
	if now.total > 0 {
		snap.Compliance = float64(now.good) / float64(now.total)
		snap.BudgetRemaining = 1 - (1-snap.Compliance)/budget
	}
	for _, w := range sloWindows {
		snap.Burn[w.label] = s.burnLocked(now, w.d, budget)
	}
	return snap
}

// sampleLocked reads the source, appends a ring sample when the last
// one is old enough, prunes samples beyond the longest window, and
// returns the current reading.
func (s *SLO) sampleLocked() sloSample {
	total, good := s.source()
	if good > total {
		good = total
	}
	now := sloSample{at: time.Now(), total: total, good: good}
	n := len(s.samples)
	if n == 0 || now.at.Sub(s.samples[n-1].at) >= sampleEvery {
		s.samples = append(s.samples, now)
	}
	maxW := sloWindows[len(sloWindows)-1].d
	cut := 0
	for cut < len(s.samples)-1 && now.at.Sub(s.samples[cut+1].at) > maxW {
		cut++
	}
	if cut > 0 {
		s.samples = append(s.samples[:0:0], s.samples[cut:]...)
	}
	return now
}

// burnLocked computes the burn rate over the window ending at now: the
// bad fraction of requests in the window divided by the error budget.
// The baseline is the newest sample at least window old, or the zero
// sample (process start) when none is. The counts are read without a
// lock across children (a reading can overstate good), so the bad
// difference is taken signed and floored at 0.
func (s *SLO) burnLocked(now sloSample, window time.Duration, budget float64) float64 {
	var base sloSample
	for i := len(s.samples) - 1; i >= 0; i-- {
		if now.at.Sub(s.samples[i].at) >= window {
			base = s.samples[i]
			break
		}
	}
	dTotal := int64(now.total) - int64(base.total)
	if dTotal <= 0 {
		return 0
	}
	dBad := max(0, int64(now.total-now.good)-int64(base.total-base.good))
	return (float64(dBad) / float64(dTotal)) / budget
}

// Register exposes the SLO as the sirius_slo_* family set on reg:
// target, objective, remaining error budget and per-window burn-rate
// gauges. The names are fixed so dashboards work identically against
// server, frontend and loadgen. The counts the SLO reads are not
// restated: total is the latency family's _count summed over its
// children, and good its cumulative _bucket at the largest bound at or
// below the target.
func (s *SLO) Register(reg *Registry) {
	reg.register("sirius_slo_target_seconds", "Latency target of the SLO.", "gauge",
		func(w io.Writer, n string) { fmt.Fprintf(w, "%s %g\n", n, s.target.Seconds()) })
	reg.register("sirius_slo_objective_ratio", "Fraction of requests that must meet the target.", "gauge",
		func(w io.Writer, n string) { fmt.Fprintf(w, "%s %g\n", n, sloObjective) })
	reg.register("sirius_slo_error_budget_remaining_ratio", "Remaining error budget (1 untouched, 0 exhausted, negative overspent).", "gauge",
		func(w io.Writer, n string) { fmt.Fprintf(w, "%s %g\n", n, s.Snapshot().BudgetRemaining) })
	reg.register("sirius_slo_burn_rate", "Error-budget burn rate per trailing window (1.0 = budget consumed exactly at accrual rate).", "gauge",
		func(w io.Writer, n string) {
			snap := s.Snapshot()
			for _, win := range sloWindows {
				fmt.Fprintf(w, "%s{window=%q} %g\n", n, win.label, snap.Burn[win.label])
			}
		})
}

// handler serves the snapshot as JSON (mount at /slo).
func (s *SLO) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
}
