package sirius

import (
	"encoding/json"
	"net/http"
	"time"

	"sirius/internal/telemetry"
)

// snapshot is the JSON shape of /stats: per-kind and per-stage latency
// summaries (count, mean, max, p50..p999) plus counts and error rate.
// Latencies are log-bucketed histograms, per query kind and per pipeline
// stage, because the paper's provisioning argument (§6) runs on tails,
// not means: an action-path p50 and an answer-path p99 differ by orders
// of magnitude and must not be pooled.
type snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Served        map[Kind]int                 `json:"served"`
	Errors        int                          `json:"errors"`
	ErrorRate     float64                      `json:"error_rate"`
	MeanLatency   time.Duration                `json:"mean_latency_ns"`
	MaxLatency    time.Duration                `json:"max_latency_ns"`
	Latency       telemetry.Summary            `json:"latency"`
	PerKind       map[Kind]telemetry.Summary   `json:"per_kind"`
	Stages        map[string]telemetry.Summary `json:"stages"`

	// SlowTraces are the retained upper-decile exemplars of the overall
	// latency histogram, slowest first: request ids resolvable at
	// /debug/traces?id=<id> — the hop from a bad percentile to the
	// concrete request behind it.
	SlowTraces []telemetry.Exemplar `json:"slow_traces,omitempty"`
}

// snapshot is /stats read off the /metrics registry at scrape time, so
// the two endpoints cannot disagree: served counts and per-kind latency
// from sirius_query_latency_seconds (every served query is observed there
// exactly once, so a scrape cannot see served ahead of latency), the
// overall latency and its slow traces from those children merged, errors
// from sirius_query_errors_total, and stages from
// sirius_stage_latency_seconds.
func (s *Server) snapshot() snapshot {
	snap := snapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Served:        map[Kind]int{},
		PerKind:       map[Kind]telemetry.Summary{},
		Stages:        s.stageLat.Summaries(),
	}
	served := 0
	var all telemetry.Histogram
	for kind, sum := range s.queryLat.Summaries() {
		snap.Served[Kind(kind)] = int(sum.Count)
		snap.PerKind[Kind(kind)] = sum
		served += int(sum.Count)
		all.Merge(s.queryLat.With(kind))
	}
	for _, n := range s.errors.Values() {
		snap.Errors += int(n)
	}
	if served+snap.Errors > 0 {
		snap.ErrorRate = float64(snap.Errors) / float64(served+snap.Errors)
	}
	snap.Latency = all.Summarize()
	snap.MeanLatency = snap.Latency.Mean
	snap.MaxLatency = snap.Latency.Max
	snap.SlowTraces = all.Exemplars(0.9)
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
