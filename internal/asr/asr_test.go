package asr

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sirius/internal/audio"
	"sirius/internal/batch"
	"sirius/internal/hmm"
	"sirius/internal/mat"
)

// testVocab is a small, phonetically spread vocabulary.
var testVocab = []string{"go", "stop", "time", "news", "weather", "call"}

// buildTestSetup trains acoustic models once for the package tests.
func buildTestSetup(t testing.TB) (*Models, *hmm.Lexicon, *hmm.Bigram) {
	lex := hmm.NewLexicon()
	lex.AddWords(testVocab...)
	lex.AddSilence()
	lm := hmm.NewBigram(lex)
	for _, w := range testVocab {
		lm.Observe(w)
	}
	lm.Observe("call time")
	lm.Observe("stop news")
	models, err := TrainModels(lex.PhoneSet(), DefaultTrainConfig())
	if err != nil {
		panic(err) // t may be nil when called from benchmarks
	}
	return models, lex, lm
}

var cachedModels *Models
var cachedLex *hmm.Lexicon
var cachedLM *hmm.Bigram

func setup(t testing.TB) (*Models, *hmm.Lexicon, *hmm.Bigram) {
	if cachedModels == nil {
		cachedModels, cachedLex, cachedLM = buildTestSetup(t)
	}
	return cachedModels, cachedLex, cachedLM
}

func TestTrainModelsValidation(t *testing.T) {
	if _, err := TrainModels(nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty phone set")
	}
	if _, err := TrainModels([]string{"notaphone"}, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for unknown phone")
	}
}

func TestEngineString(t *testing.T) {
	if EngineGMM.String() != "GMM" || EngineDNN.String() != "DNN" {
		t.Fatal("engine names")
	}
}

func TestNewRecognizerRejectsUncoveredPhones(t *testing.T) {
	models, _, _ := setup(t)
	lex := hmm.NewLexicon()
	lex.Add("x", []string{"er"}) // "er" not in the test vocab's phone set
	lm := hmm.NewBigram(lex)
	if _, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig()); err == nil {
		t.Skip("er happens to be covered by test vocab; skip")
	}
}

func TestSynthesizeText(t *testing.T) {
	_, lex, _ := setup(t)
	samples, err := SynthesizeText(lex, "go stop", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 16000/4 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	if _, err := SynthesizeText(lex, "outofvocab", 7); err == nil {
		t.Fatal("expected OOV error")
	}
	// Punctuation and case are normalized.
	if _, err := SynthesizeText(lex, "Go, STOP!", 7); err != nil {
		t.Fatalf("normalization failed: %v", err)
	}
}

func recognizeAccuracy(t *testing.T, engine Engine) float64 {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, engine, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i, w := range testVocab {
		samples, err := SynthesizeText(lex, w, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if strings.Contains(res.Text, w) {
			correct++
		}
	}
	return float64(correct) / float64(total)
}

func TestRecognizeGMMAccuracy(t *testing.T) {
	if acc := recognizeAccuracy(t, EngineGMM); acc < 0.67 {
		t.Fatalf("GMM accuracy %.2f below threshold", acc)
	}
}

func TestRecognizeDNNAccuracy(t *testing.T) {
	if acc := recognizeAccuracy(t, EngineDNN); acc < 0.5 {
		t.Fatalf("DNN accuracy %.2f below threshold", acc)
	}
}

func TestRecognizeTimingsPopulated(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := SynthesizeText(lex, "weather", 3)
	res, err := rec.Recognize(samples)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Frames == 0 || tm.Scoring <= 0 || tm.FeatureExtraction <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
	if tm.Total() < tm.Scoring {
		t.Fatal("total must include scoring")
	}
	// Acoustic scoring must dominate the ASR budget (paper Fig 9: GMM
	// scoring is the hot component).
	if tm.Scoring < tm.Search {
		t.Logf("note: scoring %v < search %v (acceptable but unexpected)", tm.Scoring, tm.Search)
	}
	if strings.Contains(res.Text, hmm.SilenceWord) {
		t.Fatal("silence pseudo-word leaked into output")
	}
}

func TestRecognizeTooShort(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recognize(make([]float64, 10)); err == nil {
		t.Fatal("expected error for too-short audio")
	}
}

func BenchmarkRecognizeGMM(b *testing.B) {
	models, lex, lm := setup(nil)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	samples, _ := SynthesizeText(lex, "call time", 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Recognize(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// scorerPairs are the four (engine, precision) pairs the one scorer
// covers.
var scorerPairs = []struct {
	engine Engine
	prec   Precision
}{
	{EngineGMM, PrecisionFP64}, {EngineGMM, PrecisionInt8},
	{EngineDNN, PrecisionFP64}, {EngineDNN, PrecisionInt8},
}

// testFrames builds n deterministic feature frames of the front end's
// width.
func testFrames(models *Models, n int) [][]float64 {
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = make([]float64, models.FrontEnd.Config().Dim())
		for d := range frames[i] {
			frames[i][d] = float64(i*7+d%5) / 10
		}
	}
	return frames
}

// TestScorerBlockEqualsRows pins chunk invariance at the seam streaming
// relies on: for every (engine, precision) pair, scoring a block gives,
// bit for bit, the rows its frames score to one at a time — however an
// utterance is cut into chunks the search reads the same numbers.
func TestScorerBlockEqualsRows(t *testing.T) {
	models, lex, lm := setup(t)
	models.Quantize()
	frames := testFrames(models, 5)
	ctx := context.Background()
	for _, p := range scorerPairs {
		rec, err := NewRecognizer(models, p.engine, lex, lm, hmm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := rec.newScorer(p.prec)
		if err != nil {
			t.Fatal(err)
		}
		block := sc.Score(ctx, frames)
		if len(block) != len(frames) {
			t.Fatalf("%v %s: %d rows for %d frames", p.engine, p.prec, len(block), len(frames))
		}
		for f := range frames {
			one := sc.Score(ctx, frames[f:f+1])
			if len(one) != 1 || len(one[0]) != sc.NumSenones() || len(block[f]) != sc.NumSenones() {
				t.Fatalf("%v %s frame %d: row shapes %d and %d, want %d senones", p.engine, p.prec, f, len(one[0]), len(block[f]), sc.NumSenones())
			}
			for s := range one[0] {
				if math.Float64bits(one[0][s]) != math.Float64bits(block[f][s]) {
					t.Fatalf("%v %s frame %d senone %d: alone %v, in the block %v", p.engine, p.prec, f, s, one[0][s], block[f][s])
				}
			}
		}
		if sc.elapsed <= 0 {
			t.Fatalf("%v %s: scorer kept no scoring time", p.engine, p.prec)
		}
	}
}

// inlineBatcher is a Batcher that scores on the caller's goroutine, so
// the submit step is on the measured path without a worker's scheduling.
type inlineBatcher struct{ rec *Recognizer }

func (b inlineBatcher) Submit(_ context.Context, key string, frames [][]float64) ([][]float64, error) {
	return b.rec.ScoreBatch(key, frames), nil
}

// TestScorerPlumbingAllocsPerBlock: what the scorer adds around the
// kernel call — submit, row headers, the remap slab — costs a constant
// number of allocations per block, not a number that grows with the
// frames in it.
func TestScorerPlumbingAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the kernels' own allocations do not subtract out")
	}
	models, lex, lm := setup(t)
	models.Quantize()
	ctx := context.Background()
	small, large := testFrames(models, 1), testFrames(models, 128)
	for _, p := range scorerPairs {
		rec, err := NewRecognizer(models, p.engine, lex, lm, hmm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec.SetBatcher(inlineBatcher{rec})
		sc, err := rec.newScorer(p.prec)
		if err != nil {
			t.Fatal(err)
		}
		// kernel runs what ScoreBatch runs for this pair and nothing else.
		dst := make([]float64, models.NumSenones())
		kernel := func(frames [][]float64) {
			switch {
			case p.engine == EngineDNN:
				batch := mat.GetDense(len(frames), len(frames[0]))
				if p.prec == PrecisionInt8 {
					models.Net.ForwardBatchI8(batch)
				} else {
					models.Net.ForwardBatch(batch)
				}
				mat.PutDense(batch)
			case p.prec == PrecisionInt8:
				for _, f := range frames {
					models.bankI8.ScoreAll(dst, f)
				}
			default:
				for _, f := range frames {
					models.Bank.ScoreAllParallel(dst, f, 0)
				}
			}
		}
		plumbing := func(frames [][]float64) float64 {
			with := testing.AllocsPerRun(10, func() { sc.Score(ctx, frames) })
			return with - testing.AllocsPerRun(10, func() { kernel(frames) })
		}
		if one, many := plumbing(small), plumbing(large); many > one+2 || many > 8 {
			t.Fatalf("%v %s: plumbing allocates %v times around a 1-frame block, %v around %d frames", p.engine, p.prec, one, many, len(large))
		}
	}
}

func TestVADSpeedsUpPaddedAudio(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speech, err := SynthesizeText(lex, "weather", 55)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]float64, 16000)
	padded := append(append(append([]float64{}, pad...), speech...), pad...)

	plain, err := rec.Recognize(padded)
	if err != nil {
		t.Fatal(err)
	}
	vadCfg := audio.DefaultVAD()
	rec.EnableVAD(&vadCfg)
	defer rec.EnableVAD(nil)
	trimmed, err := rec.Recognize(padded)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Timings.Frames >= plain.Timings.Frames {
		t.Fatalf("VAD must reduce frames: %d >= %d", trimmed.Timings.Frames, plain.Timings.Frames)
	}
	// The padded-and-trimmed decode should still find the word.
	if !strings.Contains(trimmed.Text, "weather") {
		t.Logf("note: trimmed decode %q (acceptable on hard seeds)", trimmed.Text)
	}
}

// countingBatcher counts the submissions that have reached the scheduler.
type countingBatcher struct {
	Batcher
	n *atomic.Int32
}

func (b countingBatcher) Submit(ctx context.Context, key string, frames [][]float64) ([][]float64, error) {
	b.n.Add(1)
	return b.Batcher.Submit(ctx, key, frames)
}

// TestCrossRequestBatchCoalescing wires a recognizer to a shared batch
// scheduler and runs concurrent recognitions: the scheduler must fold
// at least two utterances' scoring into one batched call, and the
// transcripts and scores must match the unbatched decode exactly — on
// the 1-best search and, with rescoring on as the server runs it, on the
// n-best search, whose sessions draw their scratch from one pool on the
// recognizer's graph.
func TestCrossRequestBatchCoalescing(t *testing.T) {
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
		texts := []string{"call time", "stop news", "weather", "go"}
		samples := make([][]float64, len(texts))
		baseline := make([]Result, len(texts))
		for i, txt := range texts {
			samples[i], err = SynthesizeText(lex, txt, int64(40+i))
			if err != nil {
				t.Fatal(err)
			}
			baseline[i], err = rec.Recognize(samples[i])
			if err != nil {
				t.Fatal(err)
			}
		}

		// The worker dispatches eagerly, so only a scoring call in progress
		// lets a batch form: the first call is held until every recognition
		// has reached Submit, and the rest queue up behind it.
		var submitted atomic.Int32
		var hold sync.Once
		sched := batch.New(batch.Config{MaxBatch: 8, Score: func(key string, frames [][]float64) [][]float64 {
			hold.Do(func() {
				for i := 0; submitted.Load() < int32(len(texts)) || i < 1000; i++ {
					runtime.Gosched()
				}
			})
			return rec.ScoreBatch(key, frames)
		}})
		rec.SetBatcher(countingBatcher{sched, &submitted})

		var wg sync.WaitGroup
		got := make([]Result, len(texts))
		errs := make([]error, len(texts))
		for i := range texts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = rec.RecognizeContext(context.Background(), samples[i])
			}(i)
		}
		wg.Wait()
		st := sched.Stats()
		sched.Close()
		for i := range texts {
			if errs[i] != nil {
				t.Fatalf("rescore=%v: recognize %d: %v", rescore, i, errs[i])
			}
			if got[i].Text != baseline[i].Text || math.Float64bits(got[i].Score) != math.Float64bits(baseline[i].Score) {
				t.Fatalf("rescore=%v: batched decode %d = (%q, %v), unbatched (%q, %v)",
					rescore, i, got[i].Text, got[i].Score, baseline[i].Text, baseline[i].Score)
			}
		}
		if st.Requests != uint64(len(texts)) {
			t.Fatalf("scheduler saw %d requests, want %d", st.Requests, len(texts))
		}
		if st.Batches >= st.Requests {
			t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
		}
	}
}
