package asr

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"sirius/internal/batch"
	"sirius/internal/hmm"
	"sirius/internal/telemetry"
)

// pushChunked feeds samples to a stream in fixed-size chunks, returning
// every partial emitted along the way.
func pushChunked(t *testing.T, s *Stream, samples []float64, chunk int) []Partial {
	t.Helper()
	var partials []Partial
	for off := 0; off < len(samples); off += chunk {
		end := off + chunk
		if end > len(samples) {
			end = len(samples)
		}
		p, err := s.Push(samples[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			partials = append(partials, *p)
		}
	}
	return partials
}

// TestStreamFinalMatchesRecognize is the acceptance-criteria core: for
// the same audio, the streamed final transcript and score must be
// bit-identical to the one-shot path, at several chunk sizes, with and
// without trigram rescoring.
func TestStreamFinalMatchesRecognize(t *testing.T) {
	_, lex, _ := setup(t)
	for _, rescore := range []bool{false, true} {
		rec := newTestRecognizer(t, EngineGMM, rescore)
		samples, err := SynthesizeText(lex, "call time", 11)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rec.Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1600, 3200, len(samples)} {
			s, err := rec.NewStream(context.Background(), StreamConfig{})
			if err != nil {
				t.Fatal(err)
			}
			pushChunked(t, s, samples, chunk)
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != want.Text {
				t.Fatalf("rescore=%v chunk=%d: streamed %q, one-shot %q", rescore, chunk, got.Text, want.Text)
			}
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("rescore=%v chunk=%d: streamed score %v, one-shot %v (not bit-identical)", rescore, chunk, got.Score, want.Score)
			}
			if got.Timings.Frames != want.Timings.Frames {
				t.Fatalf("rescore=%v chunk=%d: streamed %d frames, one-shot %d", rescore, chunk, got.Timings.Frames, want.Timings.Frames)
			}
		}
	}
}

// TestStreamFinalMatchesRecognizeDNNBatched checks parity on the DNN
// engine with per-chunk scoring routed through the cross-request batch
// scheduler, on the one-pass search the DNN serves whether or not it is
// given a trigram (EnableRescoring must leave both paths bit-identical to
// a recognizer never given one). On "call time" at seed 40 a trigram
// second pass would have picked another hypothesis.
func TestStreamFinalMatchesRecognizeDNNBatched(t *testing.T) {
	_, lex, _ := setup(t)
	for _, u := range []struct {
		text string
		seed int64
	}{{"stop news", 13}, {"call time", 40}} {
		samples, err := SynthesizeText(lex, u.text, u.seed)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := newTestRecognizer(t, EngineDNN, false).Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, rescore := range []bool{false, true} {
			rec := newTestRecognizer(t, EngineDNN, rescore)
			want, err := rec.Recognize(samples)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%q rescore=%v: one-shot vs never rescored", u.text, rescore), plain, want)
			sched := batch.New(batch.Config{MaxBatch: 8, Score: rec.ScoreBatch})
			rec.SetBatcher(sched)
			s, err := rec.NewStream(context.Background(), StreamConfig{})
			if err != nil {
				t.Fatal(err)
			}
			pushChunked(t, s, samples, 3200)
			got, err := s.Finish()
			sched.Close()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%q rescore=%v: batched stream vs one-shot", u.text, rescore), want, got)
		}
	}
}

// TestStreamInt8ScoringTimeUnderInt8Kernel: a streamed int8 session files
// its scoring time on /debug/breakdown under the int8 kernel's row, as a
// one-shot int8 recognition does, and not under the fp64 one — one
// observation per scored block, inside the session's scoring time.
func TestStreamInt8ScoringTimeUnderInt8Kernel(t *testing.T) {
	models, lex, lm := setup(t)
	models.Quantize()
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SynthesizeText(lex, "stop news", 13)
	if err != nil {
		t.Fatal(err)
	}
	var blocks atomic.Int32
	rec.SetBatcher(countingBatcher{inlineBatcher{rec}, &blocks})
	defer rec.SetBatcher(nil)
	i8, fp := telemetry.DefaultKernels.With("asr", "dnn_i8"), telemetry.DefaultKernels.With("asr", "dnn")
	i8Count, i8Sum, fpCount := i8.Count(), i8.Sum(), fp.Count()
	s, err := rec.NewStream(context.Background(), StreamConfig{Precision: PrecisionInt8})
	if err != nil {
		t.Fatal(err)
	}
	pushChunked(t, s, samples, 3200)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Scoring <= 0 {
		t.Fatal("streamed session reported no scoring time")
	}
	if blocks.Load() < 2 {
		t.Fatalf("session scored %d blocks, want the several a chunked stream makes", blocks.Load())
	}
	if n, d := i8.Count()-i8Count, i8.Sum()-i8Sum; n != uint64(blocks.Load()) || d <= 0 || d > res.Timings.Scoring {
		t.Fatalf("dnn_i8 row took %d observations and %v, want one per block (%d) and no more than the session's %v", n, d, blocks.Load(), res.Timings.Scoring)
	}
	if fp.Count() != fpCount {
		t.Fatal("int8 session's scoring time landed under the fp64 kernel")
	}
}

// TestStreamEmitsPartialBeforeEnd: on a two-word utterance, a stable
// partial must surface before the audio runs out, and it must be a
// prefix consistent with incremental decoding (non-empty, stabilized
// for at least the stability horizon).
func TestStreamEmitsPartialBeforeEnd(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SynthesizeText(lex, "call time", 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rec.NewStream(context.Background(), StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	partials := pushChunked(t, s, samples, 1600)
	if len(partials) == 0 {
		t.Fatal("no partial emitted before end of audio")
	}
	for _, p := range partials {
		if p.Text == "" || p.StableFor < stableFrames || p.Frames <= 0 {
			t.Fatalf("malformed partial: %+v", p)
		}
	}
	final, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if final.Text == "" {
		t.Fatal("empty final transcript")
	}
}

// TestStreamLifecycleErrors: too-short audio fails like the one-shot
// path, and a finished stream rejects further use.
func TestStreamLifecycleErrors(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := rec.NewStream(context.Background(), StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("expected too-short error for 10 samples")
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("expected error on double Finish")
	}
	if _, err := s.Push(make([]float64, 10)); err == nil {
		t.Fatal("expected error on Push after Finish")
	}
}

// TestStreamCanceledContext: cancellation mid-stream surfaces the ctx
// error from Push.
func TestStreamCanceledContext(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SynthesizeText(lex, "weather", 17)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := rec.NewStream(ctx, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(samples[:8000]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.Push(samples[8000:]); err == nil {
		t.Fatal("expected ctx error after cancel")
	}
}
