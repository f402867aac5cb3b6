package dcsim

import (
	"math/rand"
	"time"
)

// Trace-driven queue simulation: generate a Poisson arrival process,
// push it through SimulateCluster at Servers: 1 (a single FIFO queue)
// with service times drawn either from a distribution or from timing
// real executions of a service closure, and measure the response-time
// distribution. This validates the M/M/1 model the paper's Fig 17
// analysis rests on — and quantifies how far a real service (whose
// times are not exponential) deviates.

// PoissonArrivals returns n arrival offsets (from time zero) of a
// Poisson process with the given rate (events/second).
func PoissonArrivals(rate float64, n int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// MeasuredServices times n real executions of process and returns the
// observed durations, so a live component (e.g. the QA engine) can be
// pushed through SimulateCluster.
func MeasuredServices(process func(i int), n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		process(i)
		out[i] = time.Since(start)
	}
	return out
}
