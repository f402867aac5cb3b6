// Package batch implements cross-request batch scheduling for acoustic
// scoring: concurrent /query requests each hand their utterance's
// feature frames to a shared Scheduler, whose one worker scores whatever
// is queued in a single call — one GEMM over the concatenated frames
// instead of one per request — and, the moment that call returns, whatever
// queued meanwhile. This is the "Batch Dispatch" arrangement Deep Speech 2
// uses for serving and the batching lever the Sirius paper's WSC argument
// (§5-6) rests on: DNN/GMM scoring only approaches hardware-limited
// throughput when its matrix work is batched. Dispatch is eager: nothing
// waits for company, so an idle scheduler adds no latency and batches grow
// only as fast as scoring falls behind arrivals.
package batch

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"sirius/internal/telemetry"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batch: scheduler closed")

// Config tunes a Scheduler.
type Config struct {
	// MaxBatch is the most requests coalesced into one scoring call; the
	// rest of a longer queue goes into the call after.
	MaxBatch int
	// Score evaluates the concatenated frames (one row per frame) and
	// returns one score row per input row. It runs on the scheduler's
	// worker goroutine, one call per batch; key is the Submit key the
	// batch was grouped under (e.g. the scoring precision).
	Score func(key string, frames [][]float64) [][]float64
}

// DefaultConfig returns the serving default: batches of up to 8 requests.
func DefaultConfig() Config {
	return Config{MaxBatch: 8}
}

// job is one request's scoring work in the queue.
type job struct {
	ctx      context.Context
	key      string // coalescing partition (jobs with different keys never share a Score call)
	frames   [][]float64
	enqueued time.Time
	out      chan jobResult
}

type jobResult struct {
	scores [][]float64
	err    error
}

// Stats is a snapshot of the scheduler's lifetime counters.
type Stats struct {
	Requests uint64 // scored submissions
	Batches  uint64 // scoring calls issued
	Frames   uint64 // frames scored
	Canceled uint64 // submissions dropped by context cancellation
}

// CoalesceRatio is requests per scoring call — 1.0 means no win, N
// means N requests amortized one GEMM.
func (s Stats) CoalesceRatio() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// Scheduler coalesces concurrent Submit calls into shared scoring
// calls. All metrics are allocated up front (usable without a
// registry); RegisterMetrics attaches them to a /metrics registry.
type Scheduler struct {
	cfg  Config
	jobs chan job
	done chan struct{}

	// closeMu orders enqueues against Close: every send to jobs happens
	// entirely under the read lock, and Close flips closed and closes
	// done under the write lock — so any job that made it into the queue
	// is strictly before close(done), which is before the worker's final
	// drain. Without this, a Submit racing Close could enqueue into the
	// buffered channel after the drain and wait on its result forever.
	closeMu sync.RWMutex
	closed  bool

	requests  telemetry.Counter
	batches   telemetry.Counter
	frames    telemetry.Counter
	canceled  telemetry.Counter
	sizes     *telemetry.CounterVec // batches by request count
	queueWait telemetry.Histogram   // submit-to-score latency
}

// New starts a scheduler with its worker goroutine. Close releases it.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if cfg.Score == nil {
		panic("batch: Config.Score is required")
	}
	s := &Scheduler{
		cfg: cfg,
		// The queue is deliberately deeper than MaxBatch so a scoring call
		// in progress does not block arrivals that will form the next batch.
		jobs:  make(chan job, 4*cfg.MaxBatch),
		done:  make(chan struct{}),
		sizes: telemetry.NewCounterVec("size"),
	}
	go s.run()
	return s
}

// RegisterMetrics exposes the scheduler's counters on a /metrics
// registry: batch-size distribution, coalesce-ratio numerator and
// denominator, queue-wait histogram, and cancellations.
func (s *Scheduler) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("sirius_batch_requests_total", "Scoring submissions coalesced by the batch scheduler.", &s.requests)
	reg.RegisterCounter("sirius_batch_batches_total", "Batched scoring calls (GEMMs) issued; requests/batches is the coalesce ratio.", &s.batches)
	reg.RegisterCounter("sirius_batch_frames_total", "Feature frames scored through the batch scheduler.", &s.frames)
	reg.RegisterCounter("sirius_batch_canceled_total", "Submissions dropped because the request was canceled while queued.", &s.canceled)
	reg.RegisterCounterVec("sirius_batch_size_total", "Batches by coalesced request count.", s.sizes)
	reg.RegisterHistogram("sirius_batch_queue_wait_seconds", "Time a submission waited in the batch queue before scoring.", &s.queueWait)
}

// Stats snapshots the lifetime counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Requests: s.requests.Value(),
		Batches:  s.batches.Value(),
		Frames:   s.frames.Value(),
		Canceled: s.canceled.Value(),
	}
}

// Close stops the worker. Queued submissions receive ErrClosed
// (callers fall back to unbatched scoring); a batch already being
// scored still delivers its results.
func (s *Scheduler) Close() {
	if s == nil {
		return
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

// Submit queues frames for the next batch and blocks until they are
// scored, the context is canceled, or the scheduler closes. A canceled
// submission never stalls the batch: the worker skips it at flush time
// and the remaining requests are scored all the same. key partitions
// coalescing — only submissions sharing a key are scored together, so
// e.g. fp64 and int8 frames never meet in one GEMM.
func (s *Scheduler) Submit(ctx context.Context, key string, frames [][]float64) ([][]float64, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	_, sp := telemetry.StartSpan(ctx, "batch_queue")
	defer sp.End()
	j := job{ctx: ctx, key: key, frames: frames, enqueued: time.Now(), out: make(chan jobResult, 1)}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	// done cannot close while we hold the read lock, so the worker is
	// guaranteed to see this job (it drains the queue only after
	// close(done), which orders after our send).
	select {
	case s.jobs <- j:
		s.closeMu.RUnlock()
	case <-ctx.Done():
		s.closeMu.RUnlock()
		s.canceled.Inc()
		return nil, ctx.Err()
	}
	select {
	case r := <-j.out:
		return r.scores, r.err
	case <-ctx.Done():
		// The worker flushes without us; the buffered result channel
		// means it never blocks on this abandoned job.
		s.canceled.Inc()
		return nil, ctx.Err()
	}
}

// run is the worker loop: block until a job arrives, take along whatever
// else is already queued (up to MaxBatch requests) without waiting for
// more, score once, split the rows back out, repeat. A batch is therefore
// what arrived during the scoring call before it, and queue wait is that
// call's remaining time, never a timer's.
func (s *Scheduler) run() {
	for {
		select {
		case <-s.done:
			s.drain()
			return
		case first := <-s.jobs:
			// done wins ties: when Close raced this receive, the queued
			// job must fail with ErrClosed, not sneak into a fresh batch.
			select {
			case <-s.done:
				first.out <- jobResult{err: ErrClosed}
				s.drain()
				return
			default:
			}
			pending := []job{first}
		collect:
			for len(pending) < s.cfg.MaxBatch {
				select {
				case j := <-s.jobs:
					pending = append(pending, j)
				default:
					break collect
				}
			}
			s.flush(pending)
		}
	}
}

// drain fails whatever is still queued after Close.
func (s *Scheduler) drain() {
	for {
		select {
		case j := <-s.jobs:
			j.out <- jobResult{err: ErrClosed}
		default:
			return
		}
	}
}

// flush scores one collected batch. Requests canceled while queued are
// skipped — their Submit has already returned — so one slow client
// cannot wedge everyone sharing its batch. The survivors are grouped by
// Submit key and each group is scored in its own call: a mixed-key batch
// (fp64 next to int8) splits into per-key calls rather than sharing a
// GEMM.
func (s *Scheduler) flush(pending []job) {
	live := pending[:0]
	for _, j := range pending {
		if j.ctx.Err() != nil {
			j.out <- jobResult{err: j.ctx.Err()}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	// Group in arrival order: keys almost always number one, occasionally
	// two, so a slice scan beats a map here.
	var keys []string
	groups := map[string][]job{}
	for _, j := range live {
		if _, ok := groups[j.key]; !ok {
			keys = append(keys, j.key)
		}
		groups[j.key] = append(groups[j.key], j)
	}
	for _, key := range keys {
		s.flushGroup(key, groups[key])
	}
}

// flushGroup scores one same-key batch and splits the rows back out.
func (s *Scheduler) flushGroup(key string, live []job) {
	total := 0
	for _, j := range live {
		total += len(j.frames)
	}
	all := make([][]float64, 0, total)
	for _, j := range live {
		all = append(all, j.frames...)
	}
	now := time.Now()
	for _, j := range live {
		s.queueWait.Observe(now.Sub(j.enqueued))
	}
	scores := s.cfg.Score(key, all)
	if len(scores) != total {
		err := errors.New("batch: score function returned wrong row count")
		for _, j := range live {
			j.out <- jobResult{err: err}
		}
		return
	}
	// Count the batch only after validation: a misbehaving Score function
	// must not inflate the coalesce ratio with work nobody received.
	s.batches.Inc()
	s.requests.Add(uint64(len(live)))
	s.frames.Add(uint64(total))
	s.sizes.With(strconv.Itoa(len(live))).Inc()
	off := 0
	for _, j := range live {
		j.out <- jobResult{scores: scores[off : off+len(j.frames) : off+len(j.frames)]}
		off += len(j.frames)
	}
}
