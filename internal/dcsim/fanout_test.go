package dcsim

import (
	"testing"
	"time"
)

func TestSimulateFanoutMaxSemantics(t *testing.T) {
	// One request, two shards: the response is the slower arm.
	res, err := SimulateFanout(
		[]time.Duration{0},
		[][]time.Duration{{10 * time.Millisecond, 20 * time.Millisecond}},
		FanoutSpec{Shards: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Max != 20*time.Millisecond {
		t.Fatalf("response = %v, want the slower arm (20ms)", res.Response.Max)
	}
}

func TestSimulateFanoutQueueing(t *testing.T) {
	// Two simultaneous arrivals on one shard queue FIFO: the second
	// waits for the first.
	res, err := SimulateFanout(
		[]time.Duration{0, 0},
		[][]time.Duration{{10 * time.Millisecond}, {10 * time.Millisecond}},
		FanoutSpec{Shards: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Max != 20*time.Millisecond {
		t.Fatalf("queued response = %v, want 20ms", res.Response.Max)
	}
}

func TestSimulateFanoutTailAtScale(t *testing.T) {
	// The tail-at-scale effect: with i.i.d. exponential shard demands,
	// waiting for the max of more shards stretches the tail.
	const n = 4000
	mean := 10 * time.Millisecond
	arrivals := poissonTrace(20, n, 7)

	p99 := map[int]time.Duration{}
	for _, shards := range []int{1, 4, 16} {
		sv := shardServices(exponentialServices(mean, n*shards, int64(100+shards)), shards)
		res, err := SimulateFanout(arrivals, sv, FanoutSpec{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		p99[shards] = res.Response.P99
	}
	if !(p99[1] < p99[4] && p99[4] < p99[16]) {
		t.Fatalf("fan-out p99 must grow with shard count: %v", p99)
	}
}

func TestSimulateFanoutValidation(t *testing.T) {
	if _, err := SimulateFanout(nil, nil, FanoutSpec{Shards: 1}); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := SimulateFanout([]time.Duration{0}, [][]time.Duration{{0}}, FanoutSpec{}); err == nil {
		t.Fatal("zero shards must error")
	}
	if _, err := SimulateFanout([]time.Duration{0}, [][]time.Duration{{0, 0}}, FanoutSpec{Shards: 3}); err == nil {
		t.Fatal("shard-count mismatch must error")
	}
}

// shardServices expands a flat per-arm service-time stream into the
// per-request × per-shard matrix SimulateFanout consumes: draws[i*n+s]
// becomes services[i][s].
func shardServices(draws []time.Duration, shards int) [][]time.Duration {
	out := make([][]time.Duration, len(draws)/shards)
	for i := range out {
		out[i] = draws[i*shards : (i+1)*shards]
	}
	return out
}
