// Package autoscale closes the loop the paper's §6 provisioning study
// leaves open: instead of an operator statically sizing the backend
// pool for a measured arrival rate, a controller watches the live
// frontend's latency histograms and load reports, replays the observed
// traffic through dcsim's cluster simulator (which shares telemetry's
// bucket layout with production, so simulated and measured tails
// compare bucket-for-bucket), and spawns or drains sirius-server
// replicas until the smallest pool that holds the p99 SLO is running.
package autoscale

import (
	"fmt"
	"math/rand"
	"time"

	"sirius/internal/dcsim"
	"sirius/internal/loadgen"
	"sirius/internal/telemetry"
)

// replicaPlan is one sizing decision: the smallest replica count whose
// simulated p99 holds telemetry.SLOTarget, plus the prediction itself so
// operators (and the churn smoke) can hold the model accountable
// against the measured tail.
type replicaPlan struct {
	Desired      int           `json:"desired"`
	PredictedP99 time.Duration `json:"predicted_p99_ns"`
	// Feasible is false when even Max servers miss the target in
	// simulation — Desired is then Max (saturate, don't give up).
	Feasible bool `json:"feasible"`
}

// plannerConfig bounds the simulation sweep.
type plannerConfig struct {
	Min, Max int // replica bounds (inclusive)
}

// Every candidate count replays one synthetic trace of simRequests
// requests drawn at a fixed seed, so one observed window always yields
// one plan.
const (
	simRequests = 512
	simSeed     = 1
)

// planReplicas sizes the pool for an observed arrival rate and service
// time distribution (raw telemetry bucket counts, finite buckets then
// overflow — typically the interval diff of the frontend's /loadstate
// backend histograms). It sweeps candidate counts Min..Max through
// dcsim.SimulateCluster on a synthetic Poisson trace with service
// times resampled from the observed distribution, routed round-robin as
// the frontend routes, and returns the first count whose simulated p99
// meets telemetry.SLOTarget.
func planReplicas(rate float64, serviceCounts []uint64, cfg plannerConfig) (replicaPlan, error) {
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if rate <= 0 {
		return replicaPlan{}, fmt.Errorf("autoscale: arrival rate must be positive, got %g", rate)
	}
	services := sampleServices(serviceCounts, simRequests, simSeed+1)
	if services == nil {
		return replicaPlan{}, fmt.Errorf("autoscale: empty service distribution")
	}
	arrivals := loadgen.Schedule(loadgen.Spec{Rate: rate, Requests: simRequests, Seed: simSeed})

	plan := replicaPlan{Desired: cfg.Max}
	for n := cfg.Min; n <= cfg.Max; n++ {
		res, err := dcsim.SimulateCluster(arrivals, services, nil, dcsim.ClusterSpec{
			Servers: n,
			Policy:  dcsim.PolicyRR,
		})
		if err != nil {
			return replicaPlan{}, err
		}
		plan.PredictedP99 = res.Response.P99
		if res.Response.P99 <= telemetry.SLOTarget {
			plan.Desired = n
			plan.Feasible = true
			break
		}
	}
	return plan, nil
}

// sampleServices draws n service times from a bucket-count snapshot:
// pick a bucket weighted by its count, then a uniform point inside it
// (overflow observations resolve to the largest finite bound). Returns
// nil when the snapshot is empty.
func sampleServices(counts []uint64, n int, seed int64) []time.Duration {
	bounds := telemetry.BucketBounds()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		target := uint64(rng.Int63n(int64(total))) + 1
		var cum uint64
		bucket := len(counts) - 1
		for j, c := range counts {
			cum += c
			if cum >= target {
				bucket = j
				break
			}
		}
		var lo, hi time.Duration
		switch {
		case bucket >= len(bounds): // overflow
			lo, hi = bounds[len(bounds)-1], bounds[len(bounds)-1]
		case bucket == 0:
			lo, hi = 0, bounds[0]
		default:
			lo, hi = bounds[bucket-1], bounds[bucket]
		}
		out[i] = lo + time.Duration(rng.Float64()*float64(hi-lo))
	}
	return out
}
