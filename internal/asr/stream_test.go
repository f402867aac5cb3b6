package asr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sirius/internal/audio"
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
	models, lex, lm := setup(t)
	for _, rescore := range []bool{false, true} {
		rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rescore {
			tri := hmm.NewTrigram(lex)
			tri.Observe("call time")
			tri.Observe("stop news")
			rec.EnableRescoring(tri, 3.0, 4)
		}
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
// scheduler and the n-best search feeding trigram rescoring — the
// serving configuration — as well as on the 1-best search.
func TestStreamFinalMatchesRecognizeDNNBatched(t *testing.T) {
	models, lex, lm := setup(t)
	for _, rescore := range []bool{false, true} {
		rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rescore {
			tri := hmm.NewTrigram(lex)
			tri.Observe("call time")
			tri.Observe("stop news")
			rec.EnableRescoring(tri, 3.0, 4)
		}
		samples, err := SynthesizeText(lex, "stop news", 13)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rec.Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
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
		if got.Text != want.Text || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Fatalf("rescore=%v: batched stream = (%q, %v), one-shot = (%q, %v)", rescore, got.Text, got.Score, want.Text, want.Score)
		}
	}
}

// TestStreamInt8ScoringTimeUnderInt8Kernel: a streamed int8 session files
// its scoring time on /debug/breakdown under the int8 kernel's row, as a
// one-shot int8 recognition does, and not under the fp64 one.
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
	if i8.Count() != i8Count+1 || i8.Sum()-i8Sum != res.Timings.Scoring {
		t.Fatalf("dnn_i8 row took %d observations and %v, want 1 and the session's %v", i8.Count()-i8Count, i8.Sum()-i8Sum, res.Timings.Scoring)
	}
	if fp.Count() != fpCount {
		t.Fatal("int8 session's scoring time landed under the fp64 kernel")
	}
}

// TestStreamEmitsPartialBeforeEnd: on a two-word utterance, a stable
// partial must surface before the audio runs out, and it must be a
// prefix consistent with incremental decoding (non-empty, stabilized
// for at least the configured horizon).
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
	s, err := rec.NewStream(context.Background(), StreamConfig{StableFrames: 10})
	if err != nil {
		t.Fatal(err)
	}
	partials := pushChunked(t, s, samples, 1600)
	if len(partials) == 0 {
		t.Fatal("no partial emitted before end of audio")
	}
	for _, p := range partials {
		if p.Text == "" || p.StableFor < 10 || p.Frames <= 0 {
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

// TestStreamVADSkipsLeadingSilence: with the causal gate on, a stream
// prefixed by seconds of silence still produces the right transcript
// while decoding far fewer frames than arrived.
func TestStreamVADSkipsLeadingSilence(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speech, err := SynthesizeText(lex, "weather", 55)
	if err != nil {
		t.Fatal(err)
	}
	// 2 s of capture silence: a faint noise floor, not digital zeros —
	// the models are trained multi-condition and a real microphone is
	// never exactly zero.
	silence := make([]float64, 32000)
	rng := rand.New(rand.NewSource(9))
	for i := range silence {
		silence[i] = 1e-4 * rng.NormFloat64()
	}
	padded := append(append([]float64(nil), silence...), speech...)

	vad := audio.DefaultVAD()
	s, err := rec.NewStream(context.Background(), StreamConfig{VAD: &vad})
	if err != nil {
		t.Fatal(err)
	}
	pushChunked(t, s, padded, 1600)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "weather" {
		t.Fatalf("gated transcript = %q, want \"weather\"", res.Text)
	}
	arrived := rec.models.FrontEnd.Frames(len(padded))
	if res.Timings.Frames >= arrived {
		t.Fatalf("decoded %d frames, want fewer than the %d that arrived", res.Timings.Frames, arrived)
	}
}
