// Package asr assembles Sirius' automatic speech recognition service
// (paper §2.3.1): the MFCC front-end, an acoustic model (GMM bank or DNN —
// the paper's HMM/GMM vs HMM/DNN configurations), and the HMM Viterbi
// decoder. It also owns acoustic-model training on the synthetic speech
// substrate, replacing the pretrained Sphinx/Kaldi models the paper used.
package asr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"sirius/internal/audio"
	"sirius/internal/dnn"
	"sirius/internal/gmm"
	"sirius/internal/hmm"
	"sirius/internal/mat"
	"sirius/internal/telemetry"
)

// Engine selects the acoustic-model flavor.
type Engine int

const (
	// EngineGMM is the Sphinx-style HMM/GMM configuration.
	EngineGMM Engine = iota
	// EngineDNN is the Kaldi/RASR-style HMM/DNN configuration.
	EngineDNN
)

func (e Engine) String() string {
	if e == EngineDNN {
		return "DNN"
	}
	return "GMM"
}

// Precision selects the numeric format acoustic scoring runs in. The
// decoder, language model, and front end always run fp64; precision
// only moves the scoring GEMMs (the Suite's hot kernels).
type Precision string

const (
	// PrecisionFP64 is full-precision scoring (the default; "" means
	// fp64 everywhere a Precision is accepted).
	PrecisionFP64 Precision = "fp64"
	// PrecisionInt8 scores through the int8-quantized kernels
	// (mat.MulI8): per-row symmetric quantization, exact integer
	// accumulation, fp64 dequantize on writeback. Only the DNN engine has
	// an int8 kernel; the GMM bank scores fp64.
	PrecisionInt8 Precision = "int8"
)

// ParsePrecision validates a wire-format precision string. Empty means
// "caller's default" and parses to PrecisionFP64.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionFP64:
		return PrecisionFP64, nil
	case PrecisionInt8:
		return PrecisionInt8, nil
	}
	return "", fmt.Errorf("asr: unknown precision %q (want %q or %q)", s, PrecisionFP64, PrecisionInt8)
}

// Models bundles the trained acoustic models for a phone set. The senone
// order is phone-major: senone(p, s) = p*StatesPerPhone + s with phones in
// the order of Phones.
type Models struct {
	Phones    []string
	FrontEnd  *audio.FrontEnd
	Bank      *gmm.Bank
	Net       *dnn.Network
	LogPriors []float64
}

// numSenones returns the senone count covered by the models.
func (m *Models) numSenones() int { return len(m.Phones) * hmm.StatesPerPhone }

// Quantize does nothing. A DNN recognizer builds the int8 scoring image
// itself when NewRecognizer freezes the network, so there is nothing
// left to prepare; the method stays for callers written before that.
func (m *Models) Quantize() {}

// TrainConfig controls acoustic training.
type TrainConfig struct {
	ExamplesPerPhone int // synthesized renditions per phone
	GMMComponents    int
	GMMIters         int
	DNNHidden        int
	DNNEpochs        int
	Seed             int64
}

// DefaultTrainConfig keeps training fast enough for tests while leaving
// the models separable.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		ExamplesPerPhone: 12,
		GMMComponents:    4,
		GMMIters:         6,
		DNNHidden:        48,
		DNNEpochs:        6,
		Seed:             1,
	}
}

// TrainModels trains the acoustic models with embedded training: each
// training utterance is a random permutation of the full phone set (with
// silence padding), synthesized with jitter, so every phone is observed in
// varied left/right contexts including the boundary frames a recognizer
// will actually see. The synthesizer's phone spans provide the frame
// alignment; frames inside a phone are flat-start split across its three
// HMM states (first/middle/last third).
func TrainModels(phones []string, cfg TrainConfig) (*Models, error) {
	if len(phones) == 0 {
		return nil, fmt.Errorf("asr: empty phone set")
	}
	for _, ph := range phones {
		if _, ok := audio.PhoneIndex[ph]; !ok {
			return nil, fmt.Errorf("asr: phone %q not synthesizable", ph)
		}
	}
	fe := audio.NewFrontEnd(audio.DefaultFrontEnd())
	feCfg := fe.Config()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nSen := len(phones) * hmm.StatesPerPhone
	phoneIdx := make(map[string]int, len(phones))
	for i, p := range phones {
		phoneIdx[p] = i
	}

	perSenone := make([][][]float64, nSen)
	var allFrames [][]float64
	var allLabels []int
	order := append([]string(nil), phones...)
	for ex := 0; ex < cfg.ExamplesPerPhone; ex++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		utt := append([]string{"sil"}, order...)
		utt = append(utt, "sil")
		syn := audio.NewSynthesizer(rng.Int63())
		samples, spans := syn.SynthesizeAligned(utt)
		// Multi-condition training: every utterance carries a random
		// noise floor (25-60 dB SNR), so the acoustic models tolerate
		// capture noise instead of being matched-condition brittle.
		samples = audio.AddNoise(samples, 25+35*rng.Float64(), rng.Int63())
		frames := fe.Extract(samples)
		for f, vec := range frames {
			center := f*feCfg.FrameShift + feCfg.FrameLen/2
			span, ok := spanAt(spans, center)
			if !ok {
				continue
			}
			pi, ok := phoneIdx[span.Phone]
			if !ok {
				continue // context-only phone such as padding silence
			}
			state := statePosition(center, span)
			sen := pi*hmm.StatesPerPhone + state
			perSenone[sen] = append(perSenone[sen], vec)
			allFrames = append(allFrames, vec)
			allLabels = append(allLabels, sen)
		}
	}

	// GMM bank: one mixture per senone.
	models := make([]*gmm.Model, nSen)
	for s := 0; s < nSen; s++ {
		m := gmm.NewModel(cfg.GMMComponents, fe.Config().Dim())
		if len(perSenone[s]) > 0 {
			m.Train(perSenone[s], cfg.GMMIters, rng)
		}
		models[s] = m
	}

	// DNN: frames -> senone posteriors; priors for hybrid scaling.
	net := dnn.New(rng, dnn.Sigmoid, fe.Config().Dim(), cfg.DNNHidden, cfg.DNNHidden, nSen)
	net.Train(allFrames, allLabels, dnn.TrainConfig{LearningRate: 0.3, Epochs: cfg.DNNEpochs, BatchSize: 32}, rng)
	priors := make([]float64, nSen)
	for _, l := range allLabels {
		priors[l]++
	}
	for i := range priors {
		priors[i] = math.Log((priors[i] + 1) / float64(len(allLabels)+nSen))
	}

	return &Models{
		Phones:    phones,
		FrontEnd:  fe,
		Bank:      gmm.NewBank(models),
		Net:       net,
		LogPriors: priors,
	}, nil
}

// spanAt finds the phone span containing the given sample position.
func spanAt(spans []audio.Span, pos int) (audio.Span, bool) {
	for _, s := range spans {
		if pos >= s.Start && pos < s.End {
			return s, true
		}
	}
	return audio.Span{}, false
}

// statePosition maps a sample position within a span to an HMM state
// index (0..StatesPerPhone-1) by thirds.
func statePosition(pos int, span audio.Span) int {
	width := span.End - span.Start
	if width <= 0 {
		return 0
	}
	state := (pos - span.Start) * hmm.StatesPerPhone / width
	if state >= hmm.StatesPerPhone {
		state = hmm.StatesPerPhone - 1
	}
	return state
}

// Timings decomposes recognition latency into the paper's hot components.
type Timings struct {
	FeatureExtraction time.Duration
	Scoring           time.Duration // GMM or DNN scoring (the Suite kernel)
	Search            time.Duration // Viterbi/HMM search excluding scoring
	Frames            int
}

// Total returns end-to-end recognition time.
func (t Timings) Total() time.Duration {
	return t.FeatureExtraction + t.Scoring + t.Search
}

// Result is a recognition outcome with its latency breakdown.
type Result struct {
	Text    string
	Score   float64
	Timings Timings
}

// Recognizer is a ready-to-use speech recognizer. Recognition keeps its
// state in the Stream it runs on, and the models and the compiled graph
// are read-only, so one Recognizer serves any number of concurrent
// queries and streams. Configure it (SetBatcher) before the first
// recognition; that is not safe to call concurrently with one.
type Recognizer struct {
	models *Models
	engine Engine
	net    *dnn.Served // the DNN frozen for scoring (EngineDNN only)
	graph  *hmm.Graph
	cfg    hmm.Config
	// batcher, when set, routes every block of scoring through a
	// cross-request batch scheduler.
	batcher Batcher
}

// Batcher coalesces scoring submissions from concurrent recognitions
// into shared batched calls (implemented by internal/batch.Scheduler;
// declared here so asr does not depend on the scheduler). The key
// partitions coalescing: submissions with different keys (here, the
// request precision) are never scored in the same call, so fp64 and
// int8 frames never share a GEMM.
type Batcher interface {
	Submit(ctx context.Context, key string, frames [][]float64) ([][]float64, error)
}

// SetBatcher routes this recognizer's scoring through a shared
// cross-request scheduler. The scheduler's Score function must be this
// recognizer's ScoreBatch. Pass nil to disable.
// Not safe to call concurrently with recognition.
func (r *Recognizer) SetBatcher(b Batcher) { r.batcher = b }

// ScoreBatch is the kernel switch: it scores a block of frames with the
// kernel the (engine, precision) pair selects. The DNN runs one forward
// over the block on the network NewRecognizer froze (a GEMM per layer at
// fp64, MulI8 against the int8 image at int8) and applies the hybrid
// convention,
// scaled likelihood = log p(s|x) − log p(s); the GMM bank scores the
// whole block in one Bank.Score call, its frame ranges on the shared pool
// the way the paper's CMP GMM port does (§4.3.1, Table 4). It is both what
// a recognition's scorer calls and the Score function a batch.Scheduler
// wraps, key being the wire-format precision the batch was grouped under,
// so batched and unbatched scoring run the same code. Int8 requires the
// DNN engine.
//
// Each call is one observation of the kernel's row on /debug/breakdown
// (sirius_stage_kernel_seconds{stage="asr",kernel=gmm|dnn|dnn_i8}):
// compute only, since a batched block's wait in the queue is spent before
// the scheduler calls here and is sirius_batch_queue_wait_seconds.
func (r *Recognizer) ScoreBatch(key string, frames [][]float64) [][]float64 {
	prec, err := ParsePrecision(key)
	kernel := scoreTimes[r.engine][prec]
	if err != nil || kernel == nil {
		// The scorer validated precision before enqueueing, so a key with
		// no kernel here is scheduler misuse, not client input.
		panic(fmt.Sprintf("asr: ScoreBatch key %q has no %v kernel", key, r.engine))
	}
	out := make([][]float64, len(frames))
	if len(frames) == 0 {
		return out
	}
	start := time.Now()
	defer func() { kernel.Observe(time.Since(start)) }()
	m := r.models
	if r.engine == EngineDNN {
		batch := mat.GetDense(len(frames), len(frames[0]))
		for i, f := range frames {
			copy(batch.Row(i), f)
		}
		post := r.net.Forward(batch, prec == PrecisionInt8, 0)
		mat.PutDense(batch)
		for i := range out {
			out[i] = post.Row(i)
			for j := range out[i] {
				out[i][j] -= m.LogPriors[j]
			}
		}
		return out
	}
	n := m.numSenones()
	slab := make([]float64, len(frames)*n)
	for i := range out {
		out[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	// Width 0 defers to the shared mat pool's configured width.
	m.Bank.Score(slab, frames, 0)
	return out
}

// EnableRescoring does nothing: every engine decodes in one pass. It
// remains only for the benchmark's replay kit (bench/replay.go), which
// calls it with kb.BuildTrigram's empty trigram, and goes when that call
// does.
func (r *Recognizer) EnableRescoring(*hmm.Trigram, float64, int) {}

// NewRecognizer compiles the decoding graph for lex and, on the DNN
// engine, freezes models.Net as it is now for scoring at both
// precisions. The models and the graph share one senone numbering: the
// models must have been trained on exactly the graph's phone list,
// lex.PhoneSet(), in its order, so a model row is read by the search as
// it comes out of the scorer.
func NewRecognizer(models *Models, engine Engine, lex *hmm.Lexicon, lm *hmm.Bigram, cfg hmm.Config) (*Recognizer, error) {
	graph, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(models.Phones, graph.Phones()) {
		return nil, fmt.Errorf("asr: acoustic model phones %q, lexicon phones %q: train on the lexicon's PhoneSet", models.Phones, graph.Phones())
	}
	r := &Recognizer{models: models, engine: engine, graph: graph, cfg: cfg}
	if engine == EngineDNN {
		r.net = models.Net.Freeze()
	}
	return r, nil
}

// scoreTimes[engine][precision] is each scoring kernel's row of
// sirius_stage_kernel_seconds, resolved once so that timing a block
// allocates nothing. Its entries are the selectable pairs: the GMM bank
// has no int8 kernel.
var scoreTimes = [2]map[Precision]*telemetry.Histogram{
	EngineGMM: {PrecisionFP64: telemetry.DefaultKernels.With("asr", "gmm")},
	EngineDNN: {PrecisionFP64: telemetry.DefaultKernels.With("asr", "dnn"), PrecisionInt8: telemetry.DefaultKernels.With("asr", "dnn_i8")},
}

// scorer is the package's one hmm.Scorer: what a recognition's stream
// hands its decoder. The engine and precision are data (ScoreBatch
// switches on them); the scorer picks each block's way to the kernel,
// through the batch scheduler or a local call, and keeps the time it took.
type scorer struct {
	r       *Recognizer
	prec    Precision     // PrecisionFP64 or PrecisionInt8, never ""
	elapsed time.Duration // wall time inside Score, queue wait included
}

// newScorer validates the precision for this recognizer's engine. A
// precision the engine has no kernel for (int8 on the GMM bank) wraps
// errors.ErrUnsupported, so a serving layer can tell that client error
// from a fault.
func (r *Recognizer) newScorer(prec Precision) (*scorer, error) {
	prec, err := ParsePrecision(string(prec))
	if err != nil {
		return nil, err
	}
	if scoreTimes[r.engine][prec] == nil {
		return nil, fmt.Errorf("asr: %s scoring on the %v engine: %w", prec, r.engine, errors.ErrUnsupported)
	}
	return &scorer{r: r, prec: prec}, nil
}

func (s *scorer) NumSenones() int { return s.r.models.numSenones() }

// Score implements hmm.Scorer. The block is scored through the shared
// scheduler when one is attached so concurrent requests coalesce into one
// GEMM, keyed by precision so fp64 and int8 frames never share one. A
// failed submission is told apart by why: a canceled or expired request
// returns nil without scoring (there is no client left to read the
// transcript, and the search's ctx check aborts right after), while a
// scheduler shutdown with the request still live scores locally so the
// recognition completes.
func (s *scorer) Score(ctx context.Context, frames [][]float64) [][]float64 {
	start := time.Now()
	defer func() { s.elapsed += time.Since(start) }()
	var rows [][]float64
	if b := s.r.batcher; b != nil {
		var err error
		if rows, err = b.Submit(ctx, string(s.prec), frames); err != nil && ctx.Err() != nil {
			return nil
		}
	}
	if rows == nil {
		rows = s.r.ScoreBatch(string(s.prec), frames)
	}
	return rows
}

// split files a finished recognition's decode wall time (scoring and
// search interleaved) as its two parts in tm, and the search part on
// /debug/breakdown; ScoreBatch has already filed the scoring kernel's.
func (s *scorer) split(tm *Timings, decode time.Duration) {
	tm.Scoring = s.elapsed
	tm.Search = decode - s.elapsed
	telemetry.RecordKernel("asr", "viterbi", tm.Search)
}

// RecognizePrecision decodes raw 16 kHz samples into text, with the
// acoustic scoring precision selected per request. It is a stream given
// all its audio at once: feature extraction, one scoring block and the
// Viterbi search run as Stream.Finish runs them. The context's
// cancellation reaches the batch scheduler (a canceled query stops
// waiting for its batch), and its telemetry trace picks up queue-wait
// spans. PrecisionInt8 routes the DNN's scoring through its quantized
// image, while feature extraction and Viterbi search stay fp64 either
// way. A precision the engine cannot score fails before any audio is
// processed.
func (r *Recognizer) RecognizePrecision(ctx context.Context, samples []float64, prec Precision) (Result, error) {
	s, err := r.NewStream(ctx, StreamConfig{Precision: prec})
	if err != nil {
		return Result{}, err
	}
	return s.finish(samples)
}

// SynthesizeText renders a word sequence to speech using the lexicon's
// pronunciations, with silence between words. It is the test/workload
// generator's path for producing voice queries.
func SynthesizeText(lex *hmm.Lexicon, text string, seed int64) ([]float64, error) {
	syn := audio.NewSynthesizer(seed)
	phones := []string{"sil"}
	for _, w := range strings.Fields(strings.ToLower(text)) {
		w = strings.Trim(w, ".,?!\"'")
		if w == "" {
			continue
		}
		p, err := lex.Pron(w)
		if err != nil {
			return nil, err
		}
		phones = append(phones, p...)
		phones = append(phones, "sil")
	}
	return syn.SynthesizePhones(phones), nil
}
