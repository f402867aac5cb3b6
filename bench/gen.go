package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/sirius"
)

// clients is the size of the fixed worker pool and so the number of
// client connections: one per core of the 2-core box, never more.
const clients = 2

// outcome is what the client learned from one reply.
type outcome struct {
	failed       bool           // transport error, non-200 status or unreadable reply
	failure      string         // why, when failed
	mismatch     string         // "" or how the reply differs from the oracle
	correct      bool           // reply equals kb.Query.Want (or the unsharded ranking)
	partial      bool           // search reply tagged partial
	firstPartial time.Duration  // session start to first stabilized partial (stream; 0 = none)
	lat          sirius.Latency // the reply's own stage split (one-shot queries)
}

// sendFunc sends input op under the given request id and reports what
// came back. It must be safe for concurrent use by the worker pool.
type sendFunc func(ctx context.Context, op int, reqID string) outcome

// sample is one request as the generator saw it. Offsets are from the
// start of the phase.
type sample struct {
	seq   int // position in the phase's request order; reqID(phase, seq) names it
	op    int
	due   time.Duration // when the request was scheduled (== start in a closed loop)
	start time.Duration // when the generator actually began sending
	end   time.Duration // when the reply was fully read and checked
	out   outcome
}

// latency is measured from the instant the request was due, so a stall
// is charged to every request it delays.
func (s sample) latency() time.Duration { return s.end - s.due }

type phase struct {
	name    string
	wall    time.Duration
	samples []sample
	unsent  int // paced requests still waiting when the phase was cut off
}

// attempted, failed and succeeded count requests for the per-phase report.
func (p phase) attempted() int { return len(p.samples) + p.unsent }

func (p phase) failed() int {
	n := p.unsent
	for _, s := range p.samples {
		if s.out.failed {
			n++
		}
	}
	return n
}

// latencies returns the latency of every successful request in ms.
func (p phase) latencies() []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.out.failed {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// passOrder lays out n inputs as shuffled passes: every window of n
// consecutive requests covers every input once, so two runs of the same
// length see the same mix whatever the seed and only the order differs.
func passOrder(n, length int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, length+n)
	for len(out) < length {
		out = append(out, rng.Perm(n)...)
	}
	return out[:length]
}

// poissonSchedule is the open-loop arrival schedule: rate x horizon
// arrivals separated by exponential gaps. The gaps are stratified — the
// N equally likely quantiles of the exponential distribution, in an
// order drawn from the seed — so every seed plays the same number of
// arrivals with the same gap distribution and only their clustering
// differs. With independent draws a 40-arrival schedule runs 16 % fast
// or slow, and the slow workload's latency with it.
func poissonSchedule(rate float64, horizon time.Duration, seed int64) []time.Duration {
	n := max(int(rate*horizon.Seconds()+0.5), 1)
	gaps := make([]float64, n)
	for k := range gaps {
		gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	due := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runClosed is the closed loop: each of the fixed workers sends its next
// request when its previous reply has been fully read, until dur has
// passed. order[i] is the input of the i-th request issued.
func runClosed(ctx context.Context, name string, dur time.Duration, order []int, send sendFunc) phase {
	var next atomic.Int64
	perWorker := make([][]sample, clients)
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				start := time.Since(begin)
				if start >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				op := order[i%len(order)]
				out := send(ctx, op, reqID(name, i))
				perWorker[w] = append(perWorker[w], sample{seq: i, op: op, due: start, start: start, end: time.Since(begin), out: out})
			}
		}(w)
	}
	wg.Wait()
	return phase{name: name, wall: time.Since(begin), samples: flatten(perWorker)}
}

// runPaced is the open loop: request i is due at due[i] whatever the
// system is doing. The same fixed workers dispatch it — a worker takes
// the next request, sleeps until it is due, and sends — so when every
// worker is stuck behind a stall, later requests start late and the
// wait counts in their latency. Requests still unsent at cutoff are
// abandoned and reported, which bounds the run when the system cannot
// hold the rate.
func runPaced(ctx context.Context, name string, due []time.Duration, cutoff time.Duration, order []int, send sendFunc) phase {
	var next atomic.Int64
	perWorker := make([][]sample, clients)
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(begin); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(begin)
				if start >= cutoff {
					return
				}
				op := order[i%len(order)]
				out := send(ctx, op, reqID(name, i))
				perWorker[w] = append(perWorker[w], sample{seq: i, op: op, due: due[i], start: start, end: time.Since(begin), out: out})
			}
		}(w)
	}
	wg.Wait()
	samples := flatten(perWorker)
	return phase{name: name, wall: time.Since(begin), samples: samples, unsent: max(len(due)-len(samples), 0)}
}

func flatten(perWorker [][]sample) []sample {
	var out []sample
	for _, s := range perWorker {
		out = append(out, s...)
	}
	return out
}
