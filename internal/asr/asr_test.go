package asr

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// Recognize decodes samples at fp64 under a background context.
func (r *Recognizer) Recognize(samples []float64) (Result, error) {
	return r.RecognizePrecision(context.Background(), samples, PrecisionFP64)
}

// newTestRecognizer builds a recognizer over the package's test models,
// handed a trigram through EnableRescoring when rescore is set, as the
// benchmark's replay kit does: it must decode as if it had not been.
func newTestRecognizer(t *testing.T, engine Engine, rescore bool) *Recognizer {
	t.Helper()
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, engine, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rescore {
		rec.EnableRescoring(&hmm.Trigram{}, 3.0, 4)
	}
	return rec
}

// requireSameResult fails unless got has want's text and, to the bit, its
// score.
func requireSameResult(t *testing.T, what string, want, got Result) {
	t.Helper()
	if got.Text != want.Text || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("%s = (%q, %v), want (%q, %v)", what, got.Text, got.Score, want.Text, want.Score)
	}
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
	lex.AddWords("zoo") // "z" is not in the test vocab's phone set
	lm := hmm.NewBigram(lex)
	if _, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig()); err == nil {
		t.Fatal("a lexicon with phones the models were not trained on was accepted")
	}
}

// TestNewRecognizerRequiresTheGraphsPhones: the models and the graph share
// one senone numbering, so a model phone list that is the lexicon's
// reordered, or has a phone more or one less, is refused — as a cached
// bundle trained for another lexicon would be.
func TestNewRecognizerRequiresTheGraphsPhones(t *testing.T) {
	models, lex, lm := setup(t)
	phones := lex.PhoneSet()
	for what, list := range map[string][]string{
		"reordered": append(phones[1:len(phones):len(phones)], phones[0]),
		"superset":  append(phones[:len(phones):len(phones)], "z"),
		"subset":    phones[:len(phones)-1],
	} {
		m := *models
		m.Phones = list
		if _, err := NewRecognizer(&m, EngineGMM, lex, lm, hmm.DefaultConfig()); err == nil {
			t.Fatalf("%s model phones %q accepted for lexicon phones %q", what, list, phones)
		}
	}
	if _, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig()); err != nil {
		t.Fatal(err)
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

// scorerPairs are the three (engine, precision) pairs the one scorer
// covers; the GMM bank has no int8 kernel.
var scorerPairs = []struct {
	engine Engine
	prec   Precision
}{
	{EngineGMM, PrecisionFP64},
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

// TestScorerPlumbingAllocsPerBlock: what the scorer and ScoreBatch add
// around the kernel call — submit, the row headers — costs a constant
// number of allocations per block, not a number that grows with the
// frames in it.
func TestScorerPlumbingAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the kernels' own allocations do not subtract out")
	}
	models, lex, lm := setup(t)
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
		dst := make([]float64, len(large)*models.numSenones())
		kernel := func(frames [][]float64) {
			switch {
			case p.engine == EngineDNN:
				batch := mat.GetDense(len(frames), len(frames[0]))
				rec.net.Forward(batch, p.prec == PrecisionInt8, 0)
				mat.PutDense(batch)
			default:
				models.Bank.Score(dst[:len(frames)*models.numSenones()], frames, 0)
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

// countingBatcher counts the submissions that have reached the scheduler.
type countingBatcher struct {
	Batcher
	n *atomic.Int32
}

func (b countingBatcher) Submit(ctx context.Context, key string, frames [][]float64) ([][]float64, error) {
	b.n.Add(1)
	return b.Batcher.Submit(ctx, key, frames)
}

// TestOneShotIsOneSubmit: a one-shot recognition scores its utterance as
// one block, so it reaches the batch scheduler exactly once, for every
// (engine, precision) pair.
func TestOneShotIsOneSubmit(t *testing.T) {
	models, lex, lm := setup(t)
	samples, err := SynthesizeText(lex, "call time", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range scorerPairs {
		rec, err := NewRecognizer(models, p.engine, lex, lm, hmm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int32
		rec.SetBatcher(countingBatcher{inlineBatcher{rec}, &n})
		if _, err := rec.RecognizePrecision(context.Background(), samples, p.prec); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 1 {
			t.Fatalf("%v %s: %d submissions for one recognition, want 1", p.engine, p.prec, n.Load())
		}
	}
}

// TestCrossRequestBatchCoalescing wires a recognizer to a shared batch
// scheduler and runs concurrent recognitions: the scheduler must fold
// at least two utterances' scoring into one batched call, and the
// transcripts and scores must match the unbatched decode exactly — on
// the DNN's one-pass decode (which a trigram leaves bit-identical to a
// recognizer never given one) and on the GMM's two-pass one, concurrent
// n = 4 sessions drawing their scratch from one pool on the recognizer's
// graph.
func TestCrossRequestBatchCoalescing(t *testing.T) {
	_, lex, _ := setup(t)
	for _, tc := range []struct {
		engine  Engine
		rescore bool
	}{{EngineDNN, false}, {EngineDNN, true}, {EngineGMM, true}} {
		rec := newTestRecognizer(t, tc.engine, tc.rescore)
		texts := []string{"call time", "stop news", "weather", "go"}
		samples := make([][]float64, len(texts))
		baseline := make([]Result, len(texts))
		for i, txt := range texts {
			var err error
			samples[i], err = SynthesizeText(lex, txt, int64(40+i))
			if err != nil {
				t.Fatal(err)
			}
			baseline[i], err = rec.Recognize(samples[i])
			if err != nil {
				t.Fatal(err)
			}
			if tc.engine == EngineDNN {
				want, err := newTestRecognizer(t, EngineDNN, false).Recognize(samples[i])
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%v rescore=%v: decode %d vs never rescored", tc.engine, tc.rescore, i), want, baseline[i])
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
				got[i], errs[i] = rec.RecognizePrecision(context.Background(), samples[i], PrecisionFP64)
			}(i)
		}
		wg.Wait()
		st := sched.Stats()
		sched.Close()
		for i := range texts {
			if errs[i] != nil {
				t.Fatalf("%v rescore=%v: recognize %d: %v", tc.engine, tc.rescore, i, errs[i])
			}
			requireSameResult(t, fmt.Sprintf("%v rescore=%v: batched decode %d vs unbatched", tc.engine, tc.rescore, i), baseline[i], got[i])
		}
		if st.Requests != uint64(len(texts)) {
			t.Fatalf("scheduler saw %d requests, want %d", st.Requests, len(texts))
		}
		if st.Batches >= st.Requests {
			t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
		}
	}
}
