package dcsim

import (
	"errors"
	"fmt"
	"time"

	"sirius/internal/telemetry"
)

// Scatter-gather fan-out simulation: the sharded-search counterpart of
// SimulateCluster. Each arriving query is dispatched simultaneously to
// every shard (one single-server FIFO queue per shard), and the
// aggregator answers when the last shard does. Fan-out response time is
// the MAX over per-shard completions, so the tail of one shard is the
// tail of the tier (Dean & Barroso's tail-at-scale effect).

// FanoutSpec configures one simulated scatter-gather run.
type FanoutSpec struct {
	// Shards is the partition count; each shard is one simulated server.
	Shards int
}

// SimulateFanout pushes the arrival trace through a scatter-gather tier
// of spec.Shards single-server shard queues. services[i][s] is request
// i's service demand on shard s (len(services[i]) == spec.Shards);
// shards process their arms FIFO in index order. The response time of
// request i is the max over its shard completions.
func SimulateFanout(arrivals []time.Duration, services [][]time.Duration, spec FanoutSpec) (Result, error) {
	if spec.Shards < 1 {
		return Result{}, fmt.Errorf("dcsim: fanout needs at least 1 shard, got %d", spec.Shards)
	}
	if len(arrivals) == 0 {
		return Result{}, errors.New("dcsim: empty trace")
	}
	if len(arrivals) != len(services) {
		return Result{}, fmt.Errorf("dcsim: %d arrivals vs %d service vectors", len(arrivals), len(services))
	}
	for i, sv := range services {
		if len(sv) != spec.Shards {
			return Result{}, fmt.Errorf("dcsim: request %d has %d shard demands, want %d", i, len(sv), spec.Shards)
		}
	}

	free := make([]time.Duration, spec.Shards) // each shard queue's drain time
	h := &telemetry.Histogram{}
	for i, t := range arrivals {
		var slowest time.Duration
		for s, svc := range services[i] {
			slowest = max(slowest, serve(&free[s], t, svc)-t)
		}
		h.Observe(slowest)
	}
	return Result{Response: h.Summarize()}, nil
}
