// Package loadgen drives a running Sirius service with an open-loop
// Poisson request stream and measures the response-time distribution —
// the empirical counterpart to the M/M/1 modeling of the paper's Fig 17.
// The generator is transport-agnostic: it fires any send function, so
// tests can drive an in-process pipeline and the CLI drives HTTP.
// Latencies land in telemetry histograms, overall and per query kind,
// so reports carry the same p50/p95/p99/p999 shape as the server's
// /metrics, and runs stay comparable from one version of the server to
// the next.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"sirius/internal/telemetry"
)

// Spec configures one run.
type Spec struct {
	Rate     float64 // requests per second (Poisson)
	RampTo   float64 // final rate; 0 = constant at Rate (see Run)
	Requests int     // total requests to send
	Seed     int64   // arrival-process seed

	// OnResult, when set, is called after each request completes (on the
	// request's goroutine, so it must be safe for concurrent use) with
	// the request index, the labels send returned, the measured latency,
	// and send's error. Callers use it to feed their own telemetry — the
	// CLI tracks slowest-trace ids and an SLO through it.
	OnResult func(i int, kind, target string, latency time.Duration, err error)
}

// Result summarizes a run.
type Result struct {
	Sent       int
	Errors     int
	Elapsed    time.Duration
	Throughput float64 // completed requests per second

	Latency   telemetry.Summary            // all successful requests
	PerKind   map[string]telemetry.Summary // keyed by send's kind label
	PerTarget map[string]telemetry.Summary // keyed by send's target label ("" omits the split)
}

// Run fires spec.Requests requests at Poisson arrival times, calling
// send(i) for each. send returns the kind label the request resolved to
// ("answer", "action", ... — "" pools it under "other") so tails are
// reported per kind; action and answer paths differ by orders of
// magnitude and must not share a distribution. It also returns a target
// label (the server address the request went to) so a multi-backend run
// reports per-target percentiles alongside the merged histogram —
// that's how a replica with a sick tail shows through an otherwise
// healthy pool; "" skips the per-target split. Requests are issued
// asynchronously (open loop): a slow server queues work rather than
// slowing the generator, which is what exposes queueing delay. Run
// returns only once every send it started has returned, also when ctx
// ends first, so OnResult never fires after Run has returned.
func Run(ctx context.Context, spec Spec, send func(i int) (kind, target string, err error)) (Result, error) {
	if spec.Rate <= 0 || spec.Requests <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate and requests must be positive")
	}
	if spec.RampTo < 0 {
		return Result{}, fmt.Errorf("loadgen: ramp-to rate must be non-negative")
	}
	arrivals := Schedule(spec)

	overall := &telemetry.Histogram{}
	var (
		mu        sync.Mutex
		perKind   = map[string]*telemetry.Histogram{}
		perTarget = map[string]*telemetry.Histogram{}
		errors    int
	)
	histIn := func(m map[string]*telemetry.Histogram, key string) *telemetry.Histogram {
		mu.Lock()
		defer mu.Unlock()
		h, ok := m[key]
		if !ok {
			h = &telemetry.Histogram{}
			m[key] = h
		}
		return h
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < spec.Requests; i++ {
		if d := arrivals[i] - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return Result{}, ctx.Err()
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqStart := time.Now()
			kind, target, err := send(i)
			lat := time.Since(reqStart)
			if spec.OnResult != nil {
				spec.OnResult(i, kind, target, lat, err)
			}
			if err != nil {
				mu.Lock()
				errors++
				mu.Unlock()
				return
			}
			overall.Observe(lat)
			if kind == "" {
				kind = "other"
			}
			histIn(perKind, kind).Observe(lat)
			if target != "" {
				histIn(perTarget, target).Observe(lat)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Sent:      spec.Requests,
		Errors:    errors,
		Elapsed:   elapsed,
		Latency:   overall.Summarize(),
		PerKind:   map[string]telemetry.Summary{},
		PerTarget: map[string]telemetry.Summary{},
	}
	for kind, h := range perKind {
		res.PerKind[kind] = h.Summarize()
	}
	for target, h := range perTarget {
		res.PerTarget[target] = h.Summarize()
	}
	if res.Latency.Count == 0 {
		return res, fmt.Errorf("loadgen: every request failed")
	}
	res.Throughput = float64(res.Latency.Count) / elapsed.Seconds()
	return res, nil
}

// Schedule returns spec.Requests open-loop arrival offsets (from time
// zero), drawn from spec.Seed. With RampTo unset the gaps are i.i.d.
// exponential at Rate (stationary Poisson); with RampTo set, the
// instantaneous rate sweeps linearly from Rate to RampTo across the
// request sequence — the surge profile capacity tests drive (a 10× ramp
// for the autoscaler smoke) instead of a stationary process. Run plays
// this schedule; the dcsim queue models replay it in virtual time.
func Schedule(spec Spec) []time.Duration {
	rng := rand.New(rand.NewSource(spec.Seed))
	arrivals := make([]time.Duration, spec.Requests)
	var t float64
	for i := range arrivals {
		rate := spec.Rate
		if spec.RampTo > 0 && spec.Requests > 1 {
			frac := float64(i) / float64(spec.Requests-1)
			rate += (spec.RampTo - spec.Rate) * frac
		}
		t += rng.ExpFloat64() / rate
		arrivals[i] = time.Duration(t * float64(time.Second))
	}
	return arrivals
}

func summaryLine(s telemetry.Summary) string {
	return fmt.Sprintf("mean %v  p50 %v  p95 %v  p99 %v  p999 %v  max %v",
		s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// String renders the result as a report block: an overall line, one
// line per query kind (the per-service latency table of Figs 7-9), and
// — when the run spanned several targets — one line per target, so
// replica skew is visible next to the merged tail.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d (%d errors) in %v — %.1f req/s completed\n", r.Sent, r.Errors, r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "latency %s", summaryLine(r.Latency))
	for _, k := range sortedKeys(r.PerKind) {
		s := r.PerKind[k]
		fmt.Fprintf(&b, "\n  %-8s n=%-5d %s", k, s.Count, summaryLine(s))
	}
	if len(r.PerTarget) > 1 {
		fmt.Fprintf(&b, "\nper target:")
		for _, tgt := range sortedKeys(r.PerTarget) {
			s := r.PerTarget[tgt]
			fmt.Fprintf(&b, "\n  %-24s n=%-5d %s", tgt, s.Count, summaryLine(s))
		}
	}
	return b.String()
}

func sortedKeys(m map[string]telemetry.Summary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
