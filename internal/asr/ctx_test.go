package asr

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"sirius/internal/batch"
	"sirius/internal/hmm"
	"sirius/internal/telemetry"
)

// fakeBatcher is a Batcher returning a canned result or error.
type fakeBatcher struct {
	out   [][]float64
	err   error
	calls int
}

func (f *fakeBatcher) Submit(ctx context.Context, key string, frames [][]float64) ([][]float64, error) {
	f.calls++
	if f.err != nil {
		return nil, f.err
	}
	return f.out, nil
}

// TestSubmitScorerCanceledVsClosed pins the failure-mode split in the
// scorer's submit step: a scheduler shutdown (request still live) falls
// back to local scoring so the recognition completes, while a canceled
// request returns nil WITHOUT scoring — the decoder's context check
// aborts right after, and burning a local batch pass for a client that
// already hung up would defeat deadline propagation. Local scoring is
// seen on the DNN kernel's row of the stage/kernel breakdown, which
// every ScoreBatch call on the fp64 DNN advances.
func TestSubmitScorerCanceledVsClosed(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(models, 2)
	local := telemetry.DefaultKernels.With("asr", "dnn")
	score := func(ctx context.Context, b Batcher) (rows [][]float64, localCalls uint64) {
		rec.SetBatcher(b)
		sc, err := rec.newScorer(PrecisionFP64)
		if err != nil {
			t.Fatal(err)
		}
		before := local.Count()
		rows = sc.Score(ctx, frames)
		return rows, local.Count() - before
	}
	unbatched, calls := score(context.Background(), nil)
	if len(unbatched) != 2 || calls != 1 {
		t.Fatalf("unbatched scoring: %d rows from %d local calls", len(unbatched), calls)
	}

	// Scheduler success: the scheduler's rows come back (in the graph's
	// senone order), no local work.
	canned := make([][]float64, 2)
	for i := range canned {
		canned[i] = make([]float64, models.numSenones())
		for j := range canned[i] {
			canned[i][j] = float64(9 - i)
		}
	}
	got, calls := score(context.Background(), &fakeBatcher{out: canned})
	if len(got) != 2 || got[0][0] != 9 || got[1][0] != 8 {
		t.Fatalf("scheduler rows not returned: %v", got)
	}
	if calls != 0 {
		t.Fatal("local scoring ran despite scheduler success")
	}

	// Scheduler closed, request live: local fallback must score, and give
	// what unbatched scoring gives.
	got, calls = score(context.Background(), &fakeBatcher{err: errors.New("batch: scheduler closed")})
	if !reflect.DeepEqual(got, unbatched) {
		t.Fatal("closed scheduler must fall back to local scoring")
	}
	if calls != 1 {
		t.Fatalf("local fallback ran %d times, want 1", calls)
	}

	// Request canceled: no result, and crucially NO local scoring.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, calls = score(ctx, &fakeBatcher{err: ctx.Err()})
	if got != nil {
		t.Fatalf("canceled submission returned rows: %v", got)
	}
	if calls != 0 {
		t.Fatal("canceled submission fell back to local scoring")
	}
}

// TestRecognizeContextCanceledAborts runs the full recognizer with a
// batcher attached and an already-expired context: the recognition must
// surface the context error instead of a transcript, and must not leave
// the scheduler wedged for later requests.
func TestRecognizeContextCanceledAborts(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := batch.New(batch.Config{MaxBatch: 8, Score: rec.ScoreBatch})
	defer sched.Close()
	rec.SetBatcher(sched)
	defer rec.SetBatcher(nil)

	samples, err := SynthesizeText(lex, "call time", 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rec.RecognizePrecision(ctx, samples, PrecisionFP64)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Text != "" {
		t.Fatalf("canceled recognition produced transcript %q", res.Text)
	}

	// The scheduler still serves live requests after the aborted one.
	live, err := rec.RecognizePrecision(context.Background(), samples, PrecisionFP64)
	if err != nil || live.Text == "" {
		t.Fatalf("recognition after abort: %q, %v", live.Text, err)
	}
}

// TestBreakdownScoringExcludesQueueWait: a block that waits for the batch
// scheduler is filed on /debug/breakdown as the kernel's compute alone;
// the wait belongs to sirius_batch_queue_wait_seconds. The scheduler's
// score call is held shut on a channel before it reaches the kernel, so
// the recognition's Timings.Scoring spans the hold, while the asr/dnn
// row takes one observation that fits in what is left of Timings.Scoring
// once the hold is taken out.
func TestBreakdownScoringExcludesQueueWait(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SynthesizeText(lex, "call time", 3)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var hold time.Duration
	sched := batch.New(batch.Config{MaxBatch: 8, Score: func(key string, frames [][]float64) [][]float64 {
		start := time.Now()
		entered <- struct{}{}
		<-release
		hold = time.Since(start)
		return rec.ScoreBatch(key, frames)
	}})
	defer sched.Close()
	rec.SetBatcher(sched)
	defer rec.SetBatcher(nil)

	row := telemetry.DefaultKernels.With("asr", "dnn")
	count, sum := row.Count(), row.Sum()
	var res Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = rec.RecognizePrecision(context.Background(), samples, PrecisionFP64)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler did not issue a Score call")
	}
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if hold <= 0 || res.Timings.Scoring < hold {
		t.Fatalf("Timings.Scoring %v does not span the %v hold", res.Timings.Scoring, hold)
	}
	if n, d := row.Count()-count, row.Sum()-sum; n != 1 || d <= 0 || d > res.Timings.Scoring-hold {
		t.Fatalf("asr/dnn row took %d observations and %v, want 1 within Timings.Scoring %v minus the %v hold", n, d, res.Timings.Scoring, hold)
	}
}
