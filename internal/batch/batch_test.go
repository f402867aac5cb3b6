package batch

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sirius/internal/telemetry"
)

// frame builds a 1-dim frame carrying v, so results are attributable.
func frame(v float64) []float64 { return []float64{v} }

// double is the echo scoring function: each frame doubled.
func double(frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = []float64{2 * f[0]}
	}
	return out
}

func echo(key string, frames [][]float64) [][]float64 { return double(frames) }

// call is one Score invocation as the gate saw it.
type call struct {
	key  string
	rows int
}

// gate is a Score function the test holds shut. Every call announces
// itself on entered and scores only once the test sends on release, so a
// test decides what is queued behind a scoring call without sleeping: the
// worker is eager, and only a call in progress lets a batch form.
type gate struct {
	entered chan call
	release chan struct{}
}

func newGate() *gate { return &gate{entered: make(chan call), release: make(chan struct{})} }

func (g *gate) score(key string, frames [][]float64) [][]float64 {
	g.entered <- call{key, len(frames)}
	<-g.release
	return double(frames)
}

// next waits for the scheduler's next Score call.
func (g *gate) next(t *testing.T) call {
	t.Helper()
	select {
	case c := <-g.entered:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler did not issue a Score call")
		return call{}
	}
}

// submission is one Submit running on its own goroutine.
type submission struct {
	rows [][]float64
	err  error
	done chan struct{}
}

func submit(s *Scheduler, ctx context.Context, key string, frames ...[]float64) *submission {
	sub := &submission{done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		sub.rows, sub.err = s.Submit(ctx, key, frames)
	}()
	return sub
}

// wait blocks until the submission has returned.
func (sub *submission) wait(t *testing.T) {
	t.Helper()
	select {
	case <-sub.done:
	case <-time.After(10 * time.Second):
		t.Fatal("submission did not return")
	}
}

// waitQueued spins (yielding, not sleeping) until n jobs sit in the queue
// behind the call the worker is held in.
func waitQueued(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(s.jobs) != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs queued, want %d", len(s.jobs), n)
		}
	}
}

// TestSchedulerDispatchesEagerly pins the dispatch policy. An idle
// scheduler scores a lone submission at once, as a batch of one. Whatever
// queues while that call runs goes into the next call, up to MaxBatch
// requests, and the remainder into the call after; every caller gets its
// own rows back in its own order.
func TestSchedulerDispatchesEagerly(t *testing.T) {
	const maxBatch, n = 4, 7
	g := newGate()
	s := New(Config{MaxBatch: maxBatch, Score: g.score})
	defer s.Close()

	subs := make([]*submission, n)
	send := func(i int) {
		subs[i] = submit(s, context.Background(), "fp64", frame(float64(i)), frame(float64(i)+0.5))
	}
	send(0)
	if c := g.next(t); c.rows != 2 {
		t.Fatalf("idle scheduler scored %d rows, want the lone submission's 2", c.rows)
	}
	for i := 1; i < n; i++ {
		send(i)
	}
	waitQueued(t, s, n-1)
	g.release <- struct{}{}
	if c := g.next(t); c.rows != 2*maxBatch {
		t.Fatalf("second call carried %d rows, want MaxBatch requests' %d", c.rows, 2*maxBatch)
	}
	g.release <- struct{}{}
	if c := g.next(t); c.rows != 2*(n-1-maxBatch) {
		t.Fatalf("third call carried %d rows, want the remaining %d", c.rows, 2*(n-1-maxBatch))
	}
	g.release <- struct{}{}

	for i, sub := range subs {
		sub.wait(t)
		if sub.err != nil {
			t.Fatalf("submit %d: %v", i, sub.err)
		}
		if len(sub.rows) != 2 {
			t.Fatalf("submit %d: %d rows", i, len(sub.rows))
		}
		// Each caller gets its own rows back, in its own order.
		if got, want := sub.rows[0][0], 2*float64(i); got != want {
			t.Fatalf("submit %d row 0: %v want %v", i, got, want)
		}
		if got, want := sub.rows[1][0], 2*(float64(i)+0.5); got != want {
			t.Fatalf("submit %d row 1: %v want %v", i, got, want)
		}
	}
	st := s.Stats()
	if st.Requests != n {
		t.Fatalf("requests %d, want %d", st.Requests, n)
	}
	if st.Batches != 3 {
		t.Fatalf("batches %d, want 3", st.Batches)
	}
	if st.Frames != 2*n {
		t.Fatalf("frames %d, want %d", st.Frames, 2*n)
	}
	if st.Requests <= st.Batches {
		t.Fatalf("%d requests in %d batches, want more than one per batch", st.Requests, st.Batches)
	}
}

// TestSchedulerPartitionsByKey pins the precision isolation contract:
// submissions under different keys collected into the same batch are
// scored in separate calls — an fp64 frame and an int8 frame must never
// share a GEMM — and every Score call reports the key its batch was
// grouped under.
func TestSchedulerPartitionsByKey(t *testing.T) {
	const perKey = 3
	g := newGate()
	s := New(Config{MaxBatch: 8, Score: g.score})
	defer s.Close()

	// The first fp64 submission holds the worker while the other five
	// queue up behind it as one mixed-key batch.
	subs := map[string][]*submission{}
	subs["fp64"] = append(subs["fp64"], submit(s, context.Background(), "fp64", frame(0)))
	callKeys := map[string][]int{} // key -> row counts per call
	c := g.next(t)
	callKeys[c.key] = append(callKeys[c.key], c.rows)
	for _, key := range []string{"fp64", "int8"} {
		for i := len(subs[key]); i < perKey; i++ {
			subs[key] = append(subs[key], submit(s, context.Background(), key, frame(float64(i))))
		}
	}
	waitQueued(t, s, 2*perKey-1)
	g.release <- struct{}{}
	for range 2 {
		c := g.next(t)
		callKeys[c.key] = append(callKeys[c.key], c.rows)
		g.release <- struct{}{}
	}
	for key, list := range subs {
		for i, sub := range list {
			sub.wait(t)
			if sub.err != nil {
				t.Fatalf("submit %s/%d: %v", key, i, sub.err)
			}
			if len(sub.rows) != 1 || sub.rows[0][0] != 2*float64(i) {
				t.Fatalf("submit %s/%d: wrong rows %v", key, i, sub.rows)
			}
		}
	}
	for _, key := range []string{"fp64", "int8"} {
		total := 0
		for _, n := range callKeys[key] {
			total += n
		}
		if total != perKey {
			t.Fatalf("key %q scored %d rows across %v, want %d", key, total, callKeys[key], perKey)
		}
	}
	if len(callKeys) != 2 {
		t.Fatalf("score calls saw keys %v, want exactly fp64 and int8", callKeys)
	}
	if got := s.Stats().Batches; got != 3 {
		t.Fatalf("%d scoring calls, want 3: the lone first, then one per key of the mixed batch", got)
	}
}

func TestSchedulerCancellationDoesNotStallBatch(t *testing.T) {
	g := newGate()
	s := New(Config{MaxBatch: 8, Score: g.score})
	defer s.Close()

	// Hold the worker so the next two submissions share a batch.
	holder := submit(s, context.Background(), "fp64", frame(0))
	g.next(t)
	canceled, cancel := context.WithCancel(context.Background())
	doomed := submit(s, canceled, "fp64", frame(1))
	waitQueued(t, s, 1)
	cancel()
	select {
	case <-doomed.done:
		if doomed.err != context.Canceled {
			t.Fatalf("canceled submit returned %v", doomed.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled submit did not return promptly")
	}

	// A live submission sharing the batch still completes, scored alone.
	live := submit(s, context.Background(), "fp64", frame(3))
	waitQueued(t, s, 2)
	g.release <- struct{}{}
	if c := g.next(t); c.rows != 1 {
		t.Fatalf("batch behind the canceled job carried %d rows, want the live submission's 1", c.rows)
	}
	g.release <- struct{}{}
	holder.wait(t)
	live.wait(t)
	if live.err != nil {
		t.Fatal(live.err)
	}
	if len(live.rows) != 1 || live.rows[0][0] != 6 {
		t.Fatalf("live submit got %v", live.rows)
	}
	if st := s.Stats(); st.Canceled == 0 {
		t.Fatalf("canceled counter not incremented: %+v", st)
	}
}

func TestSchedulerCloseFailsPending(t *testing.T) {
	g := newGate()
	s := New(Config{MaxBatch: 1, Score: g.score})
	// Occupy the worker, then close with a job queued behind it.
	first := submit(s, context.Background(), "fp64", frame(1))
	g.next(t)
	second := submit(s, context.Background(), "fp64", frame(2))
	waitQueued(t, s, 1)
	s.Close()
	g.release <- struct{}{}
	first.wait(t)
	second.wait(t)
	if first.err != nil {
		t.Fatalf("in-flight job failed: %v", first.err)
	}
	if second.err != errClosed {
		t.Fatalf("queued job after close returned %v, want ErrClosed", second.err)
	}
	if _, err := s.Submit(context.Background(), "fp64", [][]float64{frame(3)}); err != errClosed {
		t.Fatalf("submit after close returned %v, want ErrClosed", err)
	}
}

func TestSchedulerEmptySubmit(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Score: func(key string, frames [][]float64) [][]float64 {
		calls.Add(1)
		return make([][]float64, len(frames))
	}})
	defer s.Close()
	out, err := s.Submit(context.Background(), "fp64", nil)
	if out != nil || err != nil {
		t.Fatalf("empty submit: %v, %v", out, err)
	}
	if calls.Load() != 0 {
		t.Fatal("empty submit reached the score function")
	}
}

func TestSchedulerMetricsExposition(t *testing.T) {
	s := New(Config{MaxBatch: 4, Score: echo})
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)

	if _, err := s.Submit(context.Background(), "fp64", [][]float64{frame(1)}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sirius_batch_requests_total 1",
		"sirius_batch_batches_total 1",
		"sirius_batch_frames_total 1",
		`sirius_batch_size_total{size="1"} 1`,
		"sirius_batch_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A Score function returning the wrong row count must fail every
// submission in the batch AND leave the throughput counters untouched:
// counting the batch would inflate the coalesce ratio with scoring work
// nobody received.
func TestSchedulerWrongRowCountFailsWithoutCounting(t *testing.T) {
	s := New(Config{MaxBatch: 4, Score: func(key string, frames [][]float64) [][]float64 {
		return make([][]float64, len(frames)+1)
	}})
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)

	if _, err := s.Submit(context.Background(), "fp64", [][]float64{frame(1), frame(2)}); err == nil {
		t.Fatal("wrong row count must fail the submission")
	}
	st := s.Stats()
	if st.Batches != 0 || st.Requests != 0 || st.Frames != 0 {
		t.Fatalf("failed batch counted: %+v", st)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sirius_batch_requests_total 0",
		"sirius_batch_batches_total 0",
		"sirius_batch_frames_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q after failed batch:\n%s", want, out)
		}
	}
}
