package dcsim

import (
	"fmt"
	"time"

	"sirius/internal/telemetry"
)

// Scatter-gather fan-out simulation: the sharded-search counterpart of
// SimulateCluster. Each arriving query is dispatched simultaneously to
// every shard (one single-server FIFO queue per shard); the aggregator
// answers when the last shard does — or when the per-shard budget
// expires, in which case late shards are dropped from the merge and the
// response counts as partial. This is the latency-vs-completeness trade
// the live frontend's /v1/search makes: fan-out response time is the
// MAX over per-shard completions, so the tail of one shard is the tail
// of the tier (Dean & Barroso's tail-at-scale effect), and the budget
// converts that tail into bounded latency at the cost of narrower
// results.

// FanoutSpec configures one simulated scatter-gather run.
type FanoutSpec struct {
	// Shards is the partition count; each shard is one simulated server.
	Shards int

	// Budget, when positive, caps how long the aggregator waits for any
	// shard. A shard whose completion exceeds arrival+Budget is dropped:
	// the response returns at the budget with partial results. Late work
	// still occupies the shard's queue — the simulation conservatively
	// assumes leaves do not cancel (the live tier does propagate
	// cancellation, so measured utilization should come in at or below
	// the simulated value).
	Budget time.Duration
}

// FanoutResult summarizes a simulated scatter-gather run.
type FanoutResult struct {
	Requests int
	Shards   int
	Partials int // responses that dropped at least one late shard

	Response    telemetry.Summary   // aggregator response-time distribution
	PerShard    []telemetry.Summary // per-shard completion latency (uncapped)
	Utilization float64             // total busy time / (shards × makespan)
}

// partialRate returns the fraction of responses that were partial.
func (r FanoutResult) partialRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Partials) / float64(r.Requests)
}

// String renders the fan-out result in the loadtest report shape.
func (r FanoutResult) String() string {
	return fmt.Sprintf("shards=%d requests=%d partials=%d (%.1f%%) util=%.2f — p50 %v p95 %v p99 %v max %v",
		r.Shards, r.Requests, r.Partials, 100*r.partialRate(), r.Utilization,
		r.Response.P50.Round(time.Microsecond), r.Response.P95.Round(time.Microsecond),
		r.Response.P99.Round(time.Microsecond), r.Response.Max.Round(time.Microsecond))
}

// SimulateFanout pushes the arrival trace through a scatter-gather tier
// of spec.Shards single-server shard queues. services[i][s] is request
// i's service demand on shard s (len(services[i]) == spec.Shards);
// shards process their arms FIFO in arrival order. The response time of
// request i is the max over its shard completions, capped at
// spec.Budget when set.
func SimulateFanout(arrivals []time.Duration, services [][]time.Duration, spec FanoutSpec) (FanoutResult, error) {
	if spec.Shards < 1 {
		return FanoutResult{}, fmt.Errorf("dcsim: fanout needs at least 1 shard, got %d", spec.Shards)
	}
	if len(arrivals) == 0 {
		return FanoutResult{}, fmt.Errorf("dcsim: empty trace")
	}
	if len(arrivals) != len(services) {
		return FanoutResult{}, fmt.Errorf("dcsim: %d arrivals vs %d service vectors", len(arrivals), len(services))
	}
	for i, sv := range services {
		if len(sv) != spec.Shards {
			return FanoutResult{}, fmt.Errorf("dcsim: request %d has %d shard demands, want %d", i, len(sv), spec.Shards)
		}
	}

	n := spec.Shards
	free := make([]time.Duration, n) // each shard queue's drain time
	busy := make([]time.Duration, n)
	merged := &telemetry.Histogram{}
	perShard := make([]*telemetry.Histogram, n)
	for s := range perShard {
		perShard[s] = &telemetry.Histogram{}
	}

	res := FanoutResult{Requests: len(arrivals), Shards: n}
	for i, arr := range arrivals {
		var slowest time.Duration
		partial := false
		for s := 0; s < n; s++ {
			start := arr
			if free[s] > start {
				start = free[s]
			}
			done := start + services[i][s]
			free[s] = done
			busy[s] += services[i][s]
			lat := done - arr
			perShard[s].Observe(lat)
			if spec.Budget > 0 && lat > spec.Budget {
				partial = true
			} else if lat > slowest {
				slowest = lat
			}
		}
		resp := slowest
		if partial {
			// At least one shard missed the budget: the aggregator answers
			// at the budget with what it has.
			resp = spec.Budget
			res.Partials++
		}
		merged.Observe(resp)
	}

	res.Response = merged.Summarize()
	res.PerShard = make([]telemetry.Summary, n)
	var makespan, totalBusy time.Duration
	for s := 0; s < n; s++ {
		res.PerShard[s] = perShard[s].Summarize()
		if free[s] > makespan {
			makespan = free[s]
		}
		totalBusy += busy[s]
	}
	if makespan > 0 {
		res.Utilization = float64(totalBusy) / (float64(makespan) * float64(n))
	}
	return res, nil
}
