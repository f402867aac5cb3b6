// Package asr assembles Sirius' automatic speech recognition service
// (paper §2.3.1): the MFCC front-end, an acoustic model (GMM bank or DNN —
// the paper's HMM/GMM vs HMM/DNN configurations), and the HMM Viterbi
// decoder. It also owns acoustic-model training on the synthetic speech
// substrate, replacing the pretrained Sphinx/Kaldi models the paper used.
package asr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	// accumulation, fp64 dequantize on writeback.
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
	// bankI8 is the GMM bank's int8 scoring image (derived state, built
	// by Quantize, never serialized); the DNN's lives inside Net.
	bankI8 *gmm.BankI8
}

// NumSenones returns the senone count covered by the models.
func (m *Models) NumSenones() int { return len(m.Phones) * hmm.StatesPerPhone }

// Quantize builds the int8 scoring images for both engines (the GMM
// bank's affine decomposition and the DNN's per-layer weight images).
// Call once after training or loading, before serving PrecisionInt8
// requests; the fp64 models stay authoritative and untouched.
func (m *Models) Quantize() {
	m.Net.QuantizeWeights()
	m.bankI8 = m.Bank.Quantize()
}

// Quantized reports whether int8 scoring images are available.
func (m *Models) Quantized() bool { return m.bankI8 != nil && m.Net.Quantized() }

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

// Recognizer is a ready-to-use speech recognizer. It is safe for
// sequential reuse; concurrent queries should use separate Recognizers
// sharing the same Models (the models are read-only).
type Recognizer struct {
	models *Models
	engine Engine
	graph  *hmm.Graph
	cfg    hmm.Config
	lex    *hmm.Lexicon
	vad    *audio.VADConfig
	// remap translates model senone order to graph order (shared,
	// read-only).
	remap []int
	// batcher, when set, routes every block of scoring through a
	// cross-request batch scheduler.
	batcher Batcher
	// Two-pass rescoring (nil = single pass).
	rescoreTri    *hmm.Trigram
	rescoreWeight float64
	rescoreN      int
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
// recognizer's ScoreBatch (model senone order). Pass nil to disable.
// Not safe to call concurrently with recognition.
func (r *Recognizer) SetBatcher(b Batcher) { r.batcher = b }

// ScoreBatch is the kernel switch: it scores a block of frames in model
// senone order with the kernel the (engine, precision) pair selects. The
// DNN runs one GEMM pass over the block (ForwardBatch, or ForwardBatchI8
// against the int8 weight images) and applies the hybrid convention,
// scaled likelihood = log p(s|x) − log p(s); the fp64 GMM bank fans each
// frame's senone sweep out across the shared pool the way the paper's CMP
// GMM port does (§4.3.1, Table 4); the int8 bank sweeps frame by frame,
// each frame already being two whole-bank MulI8 matvecs with no wider GEMM
// to coalesce into. It is both what a recognition's scorer calls and the
// Score function a batch.Scheduler wraps, key being the wire-format
// precision the batch was grouped under, so batched and unbatched scoring
// run the same code. Int8 requires Models.Quantize to have run.
func (r *Recognizer) ScoreBatch(key string, frames [][]float64) [][]float64 {
	prec, err := ParsePrecision(key)
	if err != nil {
		// The scorer validated precision before enqueueing, so an unknown
		// key here is scheduler misuse, not client input.
		panic(err)
	}
	out := make([][]float64, len(frames))
	if len(frames) == 0 {
		return out
	}
	m := r.models
	if r.engine == EngineDNN {
		batch := mat.GetDense(len(frames), len(frames[0]))
		for i, f := range frames {
			copy(batch.Row(i), f)
		}
		var post *mat.Dense
		if prec == PrecisionInt8 {
			post = m.Net.ForwardBatchI8(batch)
		} else {
			post = m.Net.ForwardBatch(batch)
		}
		mat.PutDense(batch)
		for i := range out {
			out[i] = post.Row(i)
			for j := range out[i] {
				out[i][j] -= m.LogPriors[j]
			}
		}
		return out
	}
	n := m.NumSenones()
	slab := make([]float64, len(frames)*n)
	for i, f := range frames {
		out[i] = slab[i*n : (i+1)*n : (i+1)*n]
		if prec == PrecisionInt8 {
			m.bankI8.ScoreAll(out[i], f)
		} else {
			// workers <= 0 defers to the shared mat pool's configured width.
			m.Bank.ScoreAllParallel(out[i], f, 0)
		}
	}
	return out
}

// Lexicon returns the vocabulary the recognizer decodes over.
func (r *Recognizer) Lexicon() *hmm.Lexicon { return r.lex }

// EnableVAD turns on energy-based endpointing: leading and trailing
// silence is trimmed before feature extraction, shrinking the Viterbi
// search. Pass nil to disable.
func (r *Recognizer) EnableVAD(cfg *audio.VADConfig) { r.vad = cfg }

// EnableRescoring turns on two-pass decoding: the Viterbi search emits
// nbest hypotheses and a trigram language model rescores them, the
// standard arrangement that lets a first-order decoding graph benefit
// from higher-order language context. Pass nil to disable.
func (r *Recognizer) EnableRescoring(tri *hmm.Trigram, lmWeight float64, nbest int) {
	r.rescoreTri = tri
	r.rescoreWeight = lmWeight
	if nbest < 2 {
		nbest = 4
	}
	r.rescoreN = nbest
}

// NewRecognizer compiles the decoding graph for lex over the models'
// phone set. The lexicon's phones must all be covered by the models.
func NewRecognizer(models *Models, engine Engine, lex *hmm.Lexicon, lm *hmm.Bigram, cfg hmm.Config) (*Recognizer, error) {
	phoneIdx := map[string]bool{}
	for _, p := range models.Phones {
		phoneIdx[p] = true
	}
	for _, p := range lex.PhoneSet() {
		if !phoneIdx[p] {
			return nil, fmt.Errorf("asr: lexicon phone %q not in acoustic model", p)
		}
	}
	graph, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		return nil, err
	}
	r := &Recognizer{models: models, engine: engine, graph: graph, cfg: cfg, lex: lex}
	graphPhones := graph.Phones()
	modelIdx := map[string]int{}
	for i, p := range models.Phones {
		modelIdx[p] = i
	}
	r.remap = make([]int, len(graphPhones)*hmm.StatesPerPhone)
	for gi, p := range graphPhones {
		mi := modelIdx[p]
		for s := 0; s < hmm.StatesPerPhone; s++ {
			r.remap[gi*hmm.StatesPerPhone+s] = mi*hmm.StatesPerPhone + s
		}
	}
	return r, nil
}

// scorer is the package's one hmm.Scorer: what a single recognition, one
// shot or streamed, hands its decoder. The engine and precision are data
// (ScoreBatch switches on them); the scorer adds the three steps every
// block takes on its way to the search and keeps the time they took.
type scorer struct {
	r       *Recognizer
	prec    Precision     // PrecisionFP64 or PrecisionInt8, never ""
	kernel  string        // the scoring row of /debug/breakdown: gmm, dnn, gmm_i8, dnn_i8
	elapsed time.Duration // wall time inside Score, queue wait included
}

// newScorer validates the precision for this recognizer's models and
// names the kernel it selects.
func (r *Recognizer) newScorer(prec Precision) (*scorer, error) {
	prec, err := ParsePrecision(string(prec))
	if err != nil {
		return nil, err
	}
	kernel := "gmm"
	if r.engine == EngineDNN {
		kernel = "dnn"
	}
	if prec == PrecisionInt8 {
		if !r.models.Quantized() {
			return nil, fmt.Errorf("asr: int8 scoring requested before Models.Quantize")
		}
		kernel += "_i8"
	}
	return &scorer{r: r, prec: prec, kernel: kernel}, nil
}

func (s *scorer) NumSenones() int { return len(s.r.remap) }

// Score implements hmm.Scorer. The block is scored in model senone order,
// through the shared scheduler when one is attached so concurrent requests
// coalesce into one GEMM, keyed by precision so fp64 and int8 frames never
// share one. A failed submission is told apart by why: a canceled or
// expired request returns nil without scoring (there is no client left to
// read the transcript, and the search's ctx check aborts right after),
// while a scheduler shutdown with the request still live scores locally so
// the recognition completes. The rows are then reordered into the graph's
// senone numbering, which follows its own sorted phone set, in one slab.
func (s *scorer) Score(ctx context.Context, frames [][]float64) [][]float64 {
	start := time.Now()
	defer func() { s.elapsed += time.Since(start) }()
	var raw [][]float64
	if b := s.r.batcher; b != nil {
		var err error
		if raw, err = b.Submit(ctx, string(s.prec), frames); err != nil && ctx.Err() != nil {
			return nil
		}
	}
	if raw == nil {
		raw = s.r.ScoreBatch(string(s.prec), frames)
	}
	remap := s.r.remap
	n := len(remap)
	slab := make([]float64, len(raw)*n)
	out := make([][]float64, len(raw))
	for f, row := range raw {
		out[f] = slab[f*n : (f+1)*n : (f+1)*n]
		for i, m := range remap {
			out[f][i] = row[m]
		}
	}
	return out
}

// split files a finished recognition's decode wall time (scoring and
// search interleaved) as its two parts, in tm and on /debug/breakdown.
func (s *scorer) split(tm *Timings, decode time.Duration) {
	tm.Scoring = s.elapsed
	tm.Search = decode - s.elapsed
	telemetry.RecordKernel("asr", s.kernel, tm.Scoring)
	telemetry.RecordKernel("asr", "viterbi", tm.Search)
}

// Recognize decodes raw 16 kHz samples into text.
func (r *Recognizer) Recognize(samples []float64) (Result, error) {
	return r.RecognizeContext(context.Background(), samples)
}

// RecognizeContext is Recognize with a request context: the context's
// cancellation reaches the batch scheduler (a canceled query stops
// waiting for its batch), and its telemetry trace picks up queue-wait
// spans.
func (r *Recognizer) RecognizeContext(ctx context.Context, samples []float64) (Result, error) {
	return r.RecognizePrecision(ctx, samples, PrecisionFP64)
}

// RecognizePrecision is RecognizeContext with the acoustic scoring
// precision selected per request: PrecisionInt8 routes scoring through
// the models' quantized images (Models.Quantize must have run), while
// feature extraction and Viterbi search stay fp64 either way.
func (r *Recognizer) RecognizePrecision(ctx context.Context, samples []float64, prec Precision) (Result, error) {
	var tm Timings
	start := time.Now()
	if r.vad != nil {
		samples = audio.TrimSilence(samples, *r.vad)
	}
	// The front end runs under stage/kernel pprof labels and feeds the
	// measured breakdown (/debug/breakdown) — as do scoring and search
	// below, which record via RecordKernel because the decoder
	// interleaves them and the scorer already splits their time.
	var frames [][]float64
	telemetry.WithKernel(ctx, "asr", "mfcc", func(context.Context) {
		frames = r.models.FrontEnd.Extract(samples)
	})
	tm.FeatureExtraction = time.Since(start)
	tm.Frames = len(frames)
	if len(frames) == 0 {
		return Result{Timings: tm}, fmt.Errorf("asr: audio too short (%d samples)", len(samples))
	}
	sc, err := r.newScorer(prec)
	if err != nil {
		return Result{Timings: tm}, err
	}
	dec, err := hmm.NewDecoder(r.graph, sc, r.cfg)
	if err != nil {
		return Result{}, err
	}
	searchStart := time.Now()
	var res hmm.Result
	var decErr error
	telemetry.WithLabels(ctx, "asr", "viterbi", func(ctx context.Context) {
		if r.rescoreTri != nil {
			hyps, herr := dec.DecodeNBestContext(ctx, frames, r.rescoreN)
			if herr != nil {
				decErr = herr
				return
			}
			if len(hyps) == 0 {
				decErr = fmt.Errorf("asr: no hypotheses")
				return
			}
			res = hyps[r.rescoreTri.Rescore(hyps, r.rescoreWeight)]
		} else {
			res, decErr = dec.DecodeContext(ctx, frames)
		}
	})
	if decErr != nil {
		return Result{Timings: tm}, decErr
	}
	sc.split(&tm, time.Since(searchStart))
	return Result{Text: strings.Join(filterSilence(res.Words), " "), Score: res.Score, Timings: tm}, nil
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
