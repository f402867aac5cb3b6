package asr

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sirius/internal/batch"
	"sirius/internal/hmm"
	"sirius/internal/mat"
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
// seen on the DNN kernel's own timer, which every ForwardBatch call
// advances.
func TestSubmitScorerCanceledVsClosed(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(models, 2)
	local := mat.KernelTimer("dnn_forward_batch")
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
		canned[i] = make([]float64, models.NumSenones())
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
	got, calls = score(context.Background(), &fakeBatcher{err: batch.ErrClosed})
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
	res, err := rec.RecognizeContext(ctx, samples)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Text != "" {
		t.Fatalf("canceled recognition produced transcript %q", res.Text)
	}

	// The scheduler still serves live requests after the aborted one.
	live, err := rec.RecognizeContext(context.Background(), samples)
	if err != nil || live.Text == "" {
		t.Fatalf("recognition after abort: %q, %v", live.Text, err)
	}
}
