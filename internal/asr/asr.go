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

// gmmScorer adapts a GMM bank to hmm.Scorer.
type gmmScorer struct{ bank *gmm.Bank }

func (g gmmScorer) ScoreAll(dst, frame []float64) { g.bank.ScoreAll(dst, frame) }
func (g gmmScorer) NumSenones() int               { return g.bank.States() }

// ScoreAllBatch scores a frame batch through the bank's multicore path
// (hmm.BatchScorer): each frame's senone sweep fans out across
// ScoreAllParallel workers, so a cross-request batch keeps every core
// busy the way the paper's CMP GMM port does (§4.3.1, Table 4).
func (g gmmScorer) ScoreAllBatch(frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = make([]float64, g.bank.States())
		// workers <= 0 defers to the shared mat pool's configured width.
		g.bank.ScoreAllParallel(out[i], f, 0)
	}
	return out
}

// gmmScorerI8 adapts the bank's int8 scoring image to hmm.Scorer.
type gmmScorerI8 struct{ bank *gmm.BankI8 }

func (g gmmScorerI8) ScoreAll(dst, frame []float64) { g.bank.ScoreAll(dst, frame) }
func (g gmmScorerI8) NumSenones() int               { return g.bank.States() }

// ScoreAllBatch sweeps the quantized bank frame by frame — each frame
// is already two whole-bank MulI8 matvecs, so there is no wider GEMM to
// coalesce into.
func (g gmmScorerI8) ScoreAllBatch(frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = make([]float64, g.bank.States())
		g.bank.ScoreAll(out[i], f)
	}
	return out
}

// dnnScorer adapts a DNN to hmm.Scorer using the hybrid convention:
// scaled likelihood = log p(s|x) − log p(s). With a scratch attached
// (scorerFor gives each recognition its own), per-frame scoring is
// allocation-free; the zero-value scorer falls back to Forward.
type dnnScorer struct {
	net     *dnn.Network
	priors  []float64
	scratch *dnn.Scratch
}

func (d dnnScorer) ScoreAll(dst, frame []float64) {
	if d.scratch != nil {
		d.net.ForwardInto(dst, frame, d.scratch)
		for i := range dst {
			dst[i] -= d.priors[i]
		}
		return
	}
	post := d.net.Forward(frame)
	for i := range dst {
		dst[i] = post[i] - d.priors[i]
	}
}
func (d dnnScorer) NumSenones() int { return d.net.OutputDim() }

// ScoreAllBatch scores every frame in one GEMM pass (hmm.BatchScorer).
func (d dnnScorer) ScoreAllBatch(frames [][]float64) [][]float64 {
	batch := mat.NewDense(len(frames), len(frames[0]))
	for i, f := range frames {
		copy(batch.Row(i), f)
	}
	post := d.net.ForwardBatch(batch)
	out := make([][]float64, len(frames))
	for i := range out {
		row := make([]float64, post.Cols)
		copy(row, post.Row(i))
		for j := range row {
			row[j] -= d.priors[j]
		}
		out[i] = row
	}
	return out
}

// dnnScorerI8 is dnnScorer on the quantized path: activations requantize
// at each layer boundary and multiply against the int8 weight images
// (dnn.ForwardBatchI8). Requires Net.QuantizeWeights to have run.
type dnnScorerI8 struct {
	net    *dnn.Network
	priors []float64
}

func (d dnnScorerI8) ScoreAll(dst, frame []float64) {
	batch := mat.GetDense(1, len(frame))
	copy(batch.Row(0), frame)
	post := d.net.ForwardBatchI8(batch)
	row := post.Row(0)
	for i := range dst {
		dst[i] = row[i] - d.priors[i]
	}
	mat.PutDense(batch)
}
func (d dnnScorerI8) NumSenones() int { return d.net.OutputDim() }

// ScoreAllBatch scores every frame in one int8 GEMM pass.
func (d dnnScorerI8) ScoreAllBatch(frames [][]float64) [][]float64 {
	batch := mat.NewDense(len(frames), len(frames[0]))
	for i, f := range frames {
		copy(batch.Row(i), f)
	}
	post := d.net.ForwardBatchI8(batch)
	out := make([][]float64, len(frames))
	for i := range out {
		row := make([]float64, post.Cols)
		copy(row, post.Row(i))
		for j := range row {
			row[j] -= d.priors[j]
		}
		out[i] = row
	}
	return out
}

// timedScorer wraps a Scorer, accumulating time spent in acoustic scoring
// so the recognizer can report the search/scoring split (Fig 9).
type timedScorer struct {
	inner   hmm.Scorer
	elapsed time.Duration
	calls   int
}

func (t *timedScorer) ScoreAll(dst, frame []float64) {
	start := time.Now()
	t.inner.ScoreAll(dst, frame)
	t.elapsed += time.Since(start)
	t.calls++
}
func (t *timedScorer) NumSenones() int { return t.inner.NumSenones() }

// ScoreAllBatch forwards batched scoring when the wrapped scorer supports
// it, so the decoder's type assertion sees through the instrumentation.
func (t *timedScorer) ScoreAllBatch(frames [][]float64) [][]float64 {
	bs, ok := t.inner.(hmm.BatchScorer)
	if !ok {
		return nil
	}
	start := time.Now()
	out := bs.ScoreAllBatch(frames)
	t.elapsed += time.Since(start)
	t.calls += len(frames)
	return out
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
	// base is the engine scorer in model senone order, built once at
	// construction; it is stateless and shared by concurrent queries.
	base hmm.Scorer
	// remap translates model senone order to graph order (shared,
	// read-only).
	remap []int
	// batcher, when set, routes whole-utterance scoring through a
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

// SetBatcher routes this recognizer's batch scoring through a shared
// cross-request scheduler. The scheduler's Score function must be this
// recognizer's ScoreBatch (model senone order). Pass nil to disable.
// Not safe to call concurrently with recognition.
func (r *Recognizer) SetBatcher(b Batcher) { r.batcher = b }

// ScoreBatch scores frames with the engine's native batch path in model
// senone order — the Score function a batch.Scheduler wraps; key is the
// wire-format precision the scheduler grouped the batch under. Both
// engines batch (DNN via one ForwardBatch GEMM, GMM via the multicore
// bank sweep); an engine without a batch path falls back frame by frame.
func (r *Recognizer) ScoreBatch(key string, frames [][]float64) [][]float64 {
	base, err := r.baseScorer(Precision(key))
	if err != nil {
		// The submitScorer validated precision before enqueueing, so an
		// unknown key here is scheduler misuse, not client input.
		panic(err)
	}
	if bs, ok := base.(hmm.BatchScorer); ok {
		return bs.ScoreAllBatch(frames)
	}
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = make([]float64, base.NumSenones())
		base.ScoreAll(out[i], f)
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
	if engine == EngineDNN {
		r.base = dnnScorer{net: models.Net, priors: models.LogPriors}
	} else {
		r.base = gmmScorer{bank: models.Bank}
	}
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

// baseScorer resolves the engine scorer for a precision: the shared
// fp64 scorer built at construction, or a fresh (stateless, cheap)
// adapter over the models' int8 images. Int8 requires Models.Quantize
// to have run.
func (r *Recognizer) baseScorer(prec Precision) (hmm.Scorer, error) {
	switch prec {
	case "", PrecisionFP64:
		return r.base, nil
	case PrecisionInt8:
		if r.engine == EngineDNN {
			if !r.models.Net.Quantized() {
				return nil, fmt.Errorf("asr: int8 scoring requested before Models.Quantize")
			}
			return dnnScorerI8{net: r.models.Net, priors: r.models.LogPriors}, nil
		}
		if r.models.bankI8 == nil {
			return nil, fmt.Errorf("asr: int8 scoring requested before Models.Quantize")
		}
		return gmmScorerI8{bank: r.models.bankI8}, nil
	}
	return nil, fmt.Errorf("asr: unknown precision %q", prec)
}

// scorerFor builds the graph-ordered scorer chain for one recognition:
// the decoding graph numbers senones by its own sorted phone set, so
// remap from the models' order. With a batcher attached, batch scoring
// detours through the shared cross-request scheduler under ctx, keyed
// by precision so mixed-precision requests never share a batch.
func (r *Recognizer) scorerFor(ctx context.Context, prec Precision) (hmm.Scorer, error) {
	base, err := r.baseScorer(prec)
	if err != nil {
		return nil, err
	}
	if ds, ok := base.(dnnScorer); ok {
		// r.base is shared across concurrent recognitions, so the
		// zero-alloc scratch must be private to this one.
		ds.scratch = ds.net.NewScratch()
		base = ds
	}
	if r.batcher != nil {
		key := string(prec)
		if key == "" {
			key = string(PrecisionFP64)
		}
		base = &submitScorer{ctx: ctx, key: key, sub: r.batcher, inner: base}
	}
	return &remapScorer{inner: base, remap: r.remap, buf: make([]float64, r.models.NumSenones())}, nil
}

// submitScorer routes whole-utterance batch scoring through the shared
// scheduler so concurrent requests coalesce into one GEMM. Per-frame
// scoring (the decoder's fallback) stays local.
type submitScorer struct {
	ctx   context.Context
	key   string // precision key partitioning the scheduler's batches
	sub   Batcher
	inner hmm.Scorer
}

func (s *submitScorer) ScoreAll(dst, frame []float64) { s.inner.ScoreAll(dst, frame) }
func (s *submitScorer) NumSenones() int               { return s.inner.NumSenones() }

// ScoreAllBatch submits to the scheduler. On failure it distinguishes
// why: a canceled/expired request returns nil without scoring — there is
// no client left to read the transcript, and the decoder's ctx check
// aborts right after — while a scheduler shutdown (request still live)
// falls back to scoring locally so the recognition completes.
func (s *submitScorer) ScoreAllBatch(frames [][]float64) [][]float64 {
	if out, err := s.sub.Submit(s.ctx, s.key, frames); err == nil {
		return out
	}
	if s.ctx.Err() != nil {
		return nil
	}
	if bs, ok := s.inner.(hmm.BatchScorer); ok {
		return bs.ScoreAllBatch(frames)
	}
	return nil
}

// remapScorer reorders senone scores from model order to graph order.
type remapScorer struct {
	inner hmm.Scorer
	remap []int
	buf   []float64
}

func (rs *remapScorer) ScoreAll(dst, frame []float64) {
	rs.inner.ScoreAll(rs.buf, frame)
	for i, m := range rs.remap {
		dst[i] = rs.buf[m]
	}
}
func (rs *remapScorer) NumSenones() int { return len(rs.remap) }

// ScoreAllBatch forwards batched scoring through the senone remap. The
// remapped rows share one backing slab, and the search reads them in
// place.
func (rs *remapScorer) ScoreAllBatch(frames [][]float64) [][]float64 {
	bs, ok := rs.inner.(hmm.BatchScorer)
	if !ok {
		return nil
	}
	raw := bs.ScoreAllBatch(frames)
	if raw == nil {
		return nil // canceled upstream, or no batch path after all
	}
	n := len(rs.remap)
	slab := make([]float64, len(raw)*n)
	out := make([][]float64, len(raw))
	for f, row := range raw {
		mapped := slab[f*n : (f+1)*n : (f+1)*n]
		for i, m := range rs.remap {
			mapped[i] = row[m]
		}
		out[f] = mapped
	}
	return out
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
	// interleaves them and the timedScorer already splits their time.
	var frames [][]float64
	telemetry.WithKernel(ctx, "asr", "mfcc", func(context.Context) {
		frames = r.models.FrontEnd.Extract(samples)
	})
	tm.FeatureExtraction = time.Since(start)
	tm.Frames = len(frames)
	if len(frames) == 0 {
		return Result{Timings: tm}, fmt.Errorf("asr: audio too short (%d samples)", len(samples))
	}
	scorer, err := r.scorerFor(ctx, prec)
	if err != nil {
		return Result{Timings: tm}, err
	}
	ts := &timedScorer{inner: scorer}
	dec, err := hmm.NewDecoder(r.graph, ts, r.cfg)
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
	total := time.Since(searchStart)
	tm.Scoring = ts.elapsed
	tm.Search = total - ts.elapsed
	scoringKernel := "gmm"
	if r.engine == EngineDNN {
		scoringKernel = "dnn"
	}
	if prec == PrecisionInt8 {
		scoringKernel += "_i8"
	}
	telemetry.RecordKernel("asr", scoringKernel, tm.Scoring)
	telemetry.RecordKernel("asr", "viterbi", tm.Search)
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
