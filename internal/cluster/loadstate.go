package cluster

// /loadstate is the frontend's machine-readable feed for control
// planes: raw cumulative histogram bucket counts (per-kind end-to-end
// query latency and per-backend attempt latency) plus the pool view.
// A controller polls it, diffs consecutive snapshots element-wise
// (counts only grow and the bucket layout is process-wide fixed), and
// gets the interval's arrival count, latency distribution, and service
// time distribution without parsing Prometheus text. The autoscaler
// feeds exactly this into dcsim.SimulateCluster — possible only
// because production and simulation share telemetry's bucket layout.

import (
	"encoding/json"
	"net/http"
	"time"

	"sirius/internal/telemetry"
)

// LoadState is the JSON shape GET /loadstate serves.
type LoadState struct {
	Time time.Time `json:"time"` // frontend clock at snapshot

	// BucketBoundsNs is the fixed bucket layout (upper bounds, ns) the
	// count arrays are indexed by; each array carries one extra final
	// overflow entry. Consumers should verify it matches their own
	// telemetry.BucketBounds before diffing.
	BucketBoundsNs []int64 `json:"bucket_bounds_ns"`

	// QueryCounts is the cumulative per-kind end-to-end query latency
	// bucket counts (successful queries only — the distribution the SLO
	// is judged on).
	QueryCounts map[string][]uint64 `json:"query_counts"`

	// BackendCounts is the cumulative per-backend attempt latency bucket
	// counts (network included) — the closest live proxy for per-replica
	// service time a controller can observe from the frontend.
	BackendCounts map[string][]uint64 `json:"backend_counts"`

	Backends []BackendStatus `json:"backends"`

	SLOTargetNs  int64   `json:"slo_target_ns"`
	SLOObjective float64 `json:"slo_objective"`

	// Policy is the frontend's routing policy, so a controller sizing the
	// pool models the same balancing the frontend actually does.
	Policy Policy `json:"policy"`
}

// handleLoadState serves the snapshot.
func (f *Frontend) handleLoadState(w http.ResponseWriter, r *http.Request) {
	bounds := telemetry.BucketBounds()
	ns := make([]int64, len(bounds))
	for i, b := range bounds {
		ns[i] = int64(b)
	}
	st := LoadState{
		Time:           time.Now(),
		BucketBoundsNs: ns,
		QueryCounts:    f.queryLat.Counts(),
		BackendCounts:  f.backendLat.Counts(),
		Backends:       f.reg.status(),
		SLOTargetNs:    int64(f.cfg.SLOTarget),
		SLOObjective:   f.slo.Objective(),
		Policy:         f.cfg.Policy,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
