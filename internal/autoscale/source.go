package autoscale

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/telemetry"
)

// Source feeds the controller one frontend load snapshot per tick.
type Source interface {
	Snapshot(ctx context.Context) (cluster.LoadState, error)
}

// HTTPSource polls a live frontend's GET /loadstate.
type HTTPSource struct {
	URL string // frontend base URL
}

// Snapshot fetches and decodes one /loadstate.
func (s *HTTPSource) Snapshot(ctx context.Context) (cluster.LoadState, error) {
	var st cluster.LoadState
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/loadstate", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("autoscale: /loadstate returned %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&st); err != nil {
		return st, fmt.Errorf("autoscale: decoding /loadstate: %w", err)
	}
	return st, nil
}

// window is what one tick observed: the interval between two
// /loadstate snapshots, reduced to the numbers the planner needs.
type window struct {
	dt       time.Duration
	arrivals uint64        // completed queries in the interval
	rate     float64       // arrivals / dt
	p99      time.Duration // observed interval p99 (end-to-end)

	// service is the interval's merged per-backend attempt latency
	// bucket counts — the live proxy for per-replica service time. Under
	// backlog it includes queueing delay, which biases the plan
	// conservative (toward more replicas) exactly when the pool is
	// behind; the estimate relaxes back to true service time once the
	// backlog clears.
	service []uint64

	ready    int // backends currently ready for traffic
	draining int
}

// diffWindow reduces two cumulative snapshots to the interval between
// them. Counter resets (a restarted frontend) clamp to zero rather
// than going negative.
func diffWindow(prev, cur *cluster.LoadState) window {
	w := window{dt: cur.Time.Sub(prev.Time)}
	qd := diffCounts(sumFamilies(prev.QueryCounts), sumFamilies(cur.QueryCounts))
	w.service = diffCounts(sumFamilies(prev.BackendCounts), sumFamilies(cur.BackendCounts))
	for _, c := range qd {
		w.arrivals += c
	}
	if w.dt > 0 {
		w.rate = float64(w.arrivals) / w.dt.Seconds()
	}
	w.p99 = telemetry.QuantileOfCounts(qd, 0.99)
	for _, b := range cur.Backends {
		if b.Ready {
			w.ready++
		}
		if b.Draining {
			w.draining++
		}
	}
	return w
}

// checkLoadState refuses a snapshot the planner cannot read bucket for
// bucket: its layout must be this process's telemetry.BucketBounds,
// every count array must hold one entry per bound plus the overflow,
// and it must carry a positive SLO target unless the controller has
// its own (ownTarget). A frontend built with another layout, or a
// truncated body, would otherwise be diffed and resampled misaligned,
// and a zero target would make every plan infeasible and drive the pool
// to Max.
func checkLoadState(st *cluster.LoadState, ownTarget bool) error {
	bounds := telemetry.BucketBounds()
	if len(st.BucketBoundsNs) != len(bounds) {
		return fmt.Errorf("autoscale: /loadstate bucket_bounds_ns has %d bounds, want %d", len(st.BucketBoundsNs), len(bounds))
	}
	for i, b := range bounds {
		if st.BucketBoundsNs[i] != int64(b) {
			return fmt.Errorf("autoscale: /loadstate bucket_bounds_ns[%d] is %d, want %d", i, st.BucketBoundsNs[i], int64(b))
		}
	}
	for _, fam := range []struct {
		field  string
		counts map[string][]uint64
	}{{"query_counts", st.QueryCounts}, {"backend_counts", st.BackendCounts}} {
		for label, counts := range fam.counts {
			if len(counts) != len(bounds)+1 {
				return fmt.Errorf("autoscale: /loadstate %s[%q] has %d counts, want %d", fam.field, label, len(counts), len(bounds)+1)
			}
		}
	}
	if st.SLOTargetNs <= 0 && !ownTarget {
		return fmt.Errorf("autoscale: /loadstate slo_target_ns is %d and no SLO target is configured", st.SLOTargetNs)
	}
	return nil
}

// sumFamilies merges a label-keyed count map element-wise. Every array
// has the one length checkLoadState admits.
func sumFamilies(m map[string][]uint64) []uint64 {
	var out []uint64
	for _, counts := range m {
		if out == nil {
			out = make([]uint64, len(counts))
		}
		for i, c := range counts {
			out[i] += c
		}
	}
	return out
}

// diffCounts returns cur - prev element-wise, clamped at zero.
func diffCounts(prev, cur []uint64) []uint64 {
	out := make([]uint64, len(cur))
	for i, c := range cur {
		out[i] = c
		if i < len(prev) && prev[i] <= c {
			out[i] = c - prev[i]
		}
	}
	return out
}
