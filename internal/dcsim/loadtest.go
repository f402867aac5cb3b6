package dcsim

import (
	"fmt"
	"math/rand"
	"time"

	"sirius/internal/telemetry"
)

// Trace-driven queue simulation: generate a Poisson arrival process,
// push it through a single-server FIFO queue whose service times come
// either from a distribution or from timing real executions of a service
// closure, and measure the response-time distribution. This validates
// the M/M/1 model the paper's Fig 17 analysis rests on — and quantifies
// how far a real service (whose times are not exponential) deviates.

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

// TraceResult summarizes one simulated run. The response-time
// distribution lives in the same telemetry histogram the server and
// load generator use, so simulated and measured tails line up
// bucket-for-bucket. Means are exact (computed from sums, not buckets).
type TraceResult struct {
	Requests     int
	MeanService  time.Duration
	MeanResponse time.Duration // queueing + service
	P99Response  time.Duration // estimated from the response histogram
	Response     telemetry.Summary
	Utilization  float64 // busy time / makespan
}

// SimulateQueue runs a single-server FIFO queue over the arrival trace
// with the given per-request service times (len must match).
func SimulateQueue(arrivals, services []time.Duration) (TraceResult, error) {
	if len(arrivals) != len(services) {
		return TraceResult{}, fmt.Errorf("dcsim: %d arrivals vs %d service times", len(arrivals), len(services))
	}
	if len(arrivals) == 0 {
		return TraceResult{}, fmt.Errorf("dcsim: empty trace")
	}
	hist := &telemetry.Histogram{}
	var serverFree time.Duration
	var busy, sumService, sumResponse time.Duration
	for i, arr := range arrivals {
		start := arr
		if serverFree > start {
			start = serverFree
		}
		done := start + services[i]
		serverFree = done
		hist.Observe(done - arr)
		busy += services[i]
		sumService += services[i]
		sumResponse += done - arr
	}
	makespan := serverFree
	res := TraceResult{
		Requests:     len(arrivals),
		MeanService:  sumService / time.Duration(len(arrivals)),
		MeanResponse: sumResponse / time.Duration(len(arrivals)),
		Response:     hist.Summarize(),
	}
	res.P99Response = res.Response.P99
	if makespan > 0 {
		res.Utilization = float64(busy) / float64(makespan)
	}
	return res, nil
}

// MeasuredServices times n real executions of process and returns the
// observed durations, so a live component (e.g. the QA engine) can be
// pushed through SimulateQueue.
func MeasuredServices(process func(i int), n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		process(i)
		out[i] = time.Since(start)
	}
	return out
}
