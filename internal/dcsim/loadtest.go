package dcsim

import "time"

// Trace-driven queue simulation: take a Poisson arrival schedule
// (loadgen.Schedule), push it through SimulateCluster at Servers: 1 (a
// single FIFO queue) with service times drawn either from a distribution
// or from timing real executions of a service closure, and measure the
// response-time distribution. This validates the M/M/1 model the
// paper's Fig 17 analysis rests on — and quantifies how far a real
// service (whose times are not exponential) deviates.

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
