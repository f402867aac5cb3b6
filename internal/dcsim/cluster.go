package dcsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sirius/internal/telemetry"
)

// Replicated-pool simulation, and at Servers: 1 the single FIFO queue
// the M/M/1 model describes. One front-end router dispatches an arrival
// trace across N backend servers under a routing policy — the topology
// internal/cluster serves for real. Response times land in the same
// telemetry histograms the live frontend exports, so a simulated pool
// and a measured frontend + N backends run compare bucket-for-bucket
// (the §6 provisioning question: how many machines buy how much p99).

// Routing policies for the simulated pool.
const (
	PolicyRR    = "rr"    // round-robin
	PolicyLeast = "least" // least remaining work (idealized least-loaded)
	PolicyP2C   = "p2c"   // power of two choices over remaining work
)

// ClusterSpec configures one simulated pool run.
type ClusterSpec struct {
	Servers int
	Policy  string // PolicyRR, PolicyLeast, or PolicyP2C ("" is PolicyRR)
	Seed    int64  // P2C sampling
}

// Result is a simulated run's response-time distribution.
type Result struct {
	Response telemetry.Summary
}

// serve queues a request arriving at t with service demand svc on the
// FIFO server whose queue drains at *free, and returns its completion.
func serve(free *time.Duration, t, svc time.Duration) time.Duration {
	*free = max(*free, t) + svc
	return *free
}

// SimulateCluster serves the arrival trace, in index order, on an
// N-server pool: services[i] is request i's service demand, and the
// routing policy picks the server. Arrivals must not decrease; tied
// arrivals are served in index order.
//
// hedge must be nil: the simulated pool has no hedged arms. The
// parameter stays only for the benchmark's call (bench/model.go), which
// passes nil and may not be edited.
func SimulateCluster(arrivals, services, hedge []time.Duration, spec ClusterSpec) (Result, error) {
	if spec.Servers < 1 {
		return Result{}, fmt.Errorf("dcsim: cluster needs at least 1 server, got %d", spec.Servers)
	}
	if len(arrivals) != len(services) {
		return Result{}, fmt.Errorf("dcsim: %d arrivals vs %d service times", len(arrivals), len(services))
	}
	if len(arrivals) == 0 {
		return Result{}, errors.New("dcsim: empty trace")
	}
	if hedge != nil {
		return Result{}, errors.New("dcsim: hedged arms are not simulated")
	}
	switch spec.Policy {
	case "", PolicyRR, PolicyLeast, PolicyP2C:
	default:
		return Result{}, fmt.Errorf("dcsim: unknown policy %q", spec.Policy)
	}

	n := spec.Servers
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	free := make([]time.Duration, n) // each server's queue-drain time
	rrSeq := 0
	pick := func() int {
		switch spec.Policy {
		case PolicyLeast:
			best := 0
			for s := 1; s < n; s++ {
				if free[s] < free[best] {
					best = s
				}
			}
			return best
		case PolicyP2C:
			if n == 1 {
				return 0
			}
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			if free[b] < free[a] {
				a = b
			}
			return a
		default: // round-robin
			s := rrSeq % n
			rrSeq++
			return s
		}
	}

	h := &telemetry.Histogram{}
	for i, t := range arrivals {
		if i > 0 && t < arrivals[i-1] {
			return Result{}, fmt.Errorf("dcsim: arrival %d (%v) precedes arrival %d (%v)", i, t, i-1, arrivals[i-1])
		}
		h.Observe(serve(&free[pick()], t, services[i]) - t)
	}
	return Result{Response: h.Summarize()}, nil
}
