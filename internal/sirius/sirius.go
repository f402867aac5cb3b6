// Package sirius assembles the end-to-end intelligent personal assistant
// (paper §2, Figure 2): voice and/or image input flows through automatic
// speech recognition, a query classifier, question answering and image
// matching, and a natural-language answer (or a device action) comes
// back. Every response carries the per-service, per-component latency
// breakdown the paper's characterization (Figs 7-9) is built from.
package sirius

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sirius/internal/asr"
	"sirius/internal/batch"
	"sirius/internal/hmm"
	"sirius/internal/imm"
	"sirius/internal/kb"
	"sirius/internal/mat"
	"sirius/internal/nlp/crf"
	"sirius/internal/nlp/regex"
	"sirius/internal/qa"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/telemetry"
	"sirius/internal/vision"
)

// Kind describes what the pipeline decided the query was.
type Kind string

const (
	// KindAction is a device command (the VC path).
	KindAction Kind = "action"
	// KindAnswer is a question answered by QA (the VQ/VIQ paths).
	KindAnswer Kind = "answer"
)

// Response is the pipeline's reply to one query.
type Response struct {
	Kind         Kind    `json:"kind"`
	Transcript   string  `json:"transcript"`              // ASR output (or the text input)
	Action       string  `json:"action,omitempty"`        // device action verb for commands
	ActionDetail *Action `json:"action_detail,omitempty"` // parsed verb/object/argument slots
	Answer       string  `json:"answer,omitempty"`
	Evidence     string  `json:"evidence,omitempty"`      // sentence supporting the answer
	MatchedImage string  `json:"matched_image,omitempty"` // IMM result for VIQ
	// Truncated reports graceful degradation: the sharded search tier
	// answered QA retrieval best-effort (a shard missed its budget), so
	// the answer aggregates only the candidates that arrived in time (the
	// request itself still succeeded).
	Truncated bool `json:"truncated,omitempty"`
	// Precision is the acoustic scoring format the query actually ran
	// under ("fp64", or "int8" on the DNN engine); empty for text-only
	// paths that never touched ASR.
	Precision string  `json:"precision,omitempty"`
	Latency   Latency `json:"latency"`
}

// Latency is the per-service and per-component breakdown of one query.
type Latency struct {
	Total time.Duration `json:"total"`
	// ASR components.
	ASR        time.Duration `json:"asr"`
	ASRFeature time.Duration `json:"asr_feature"`
	ASRScoring time.Duration `json:"asr_scoring"` // GMM or DNN (Suite kernel)
	ASRSearch  time.Duration `json:"asr_search"`  // Viterbi/HMM
	// QA components.
	QA           time.Duration `json:"qa"`
	QAStemming   time.Duration `json:"qa_stemming"`
	QARegex      time.Duration `json:"qa_regex"`
	QACRF        time.Duration `json:"qa_crf"`
	QARetrieval  time.Duration `json:"qa_retrieval"`
	QAFilterHits int           `json:"qa_filter_hits"`
	QAFilterTime time.Duration `json:"qa_filter_time"`
	// IMM components.
	IMM       time.Duration `json:"imm"`
	IMMFE     time.Duration `json:"imm_fe"`
	IMMFD     time.Duration `json:"imm_fd"`
	IMMSearch time.Duration `json:"imm_search"`
}

// Config assembles a pipeline.
type Config struct {
	Engine     asr.Engine      // GMM or DNN acoustic models
	ASRConfig  hmm.Config      // decoder settings
	QAConfig   qa.Config       // retrieval depth
	Corpus     kb.CorpusConfig // knowledge corpus scale
	CRFSamples int             // CRF training sentences
	TrainASR   asr.TrainConfig
	// Workers sets the process-wide mat worker-pool width used by every
	// parallel kernel (GEMM, GMM bank, FE/FD/vote). 0 keeps the default
	// (runtime.NumCPU()); the pool is package-level, so this applies to
	// all pipelines in the process.
	Workers    int
	IMMWorkers int    // image pipeline workers (0 = pool width, 1 = serial baseline)
	ModelCache string // path for cached acoustic models ("" = train fresh)
	// BatchScoring coalesces concurrent requests' acoustic scoring into
	// shared GEMMs through a cross-request batch scheduler (Deep Speech
	// 2-style batch dispatch: a batch is whatever queued while the one
	// before it was being scored, at most 8 requests). Off by default:
	// single-query embedders have nothing to coalesce with.
	BatchScoring bool
	// SearchFrontend routes QA retrieval through a scatter-gather
	// frontend's /v1/search (the sharded search tier) instead of the
	// embedded corpus index, which remains the fallback when the tier
	// errors. "" keeps retrieval embedded.
	SearchFrontend string
}

// DefaultConfig mirrors the benchmark setup.
func DefaultConfig() Config {
	return Config{
		Engine:     asr.EngineGMM,
		ASRConfig:  hmm.DefaultConfig(),
		QAConfig:   qa.DefaultConfig(),
		Corpus:     kb.DefaultCorpusConfig(),
		CRFSamples: 300,
		TrainASR:   asr.DefaultTrainConfig(),
		IMMWorkers: 1,
	}
}

// minMatchVotes gates the VIQ rewrite: an image match with fewer
// (geometrically verified) votes than this is treated as "no match" —
// the photo is probably of something outside the database — and the
// query is answered from its words alone.
const minMatchVotes = 5

// Pipeline is a fully assembled Sirius instance. It is safe for
// concurrent queries: all members are read-only after construction.
type Pipeline struct {
	lex        *hmm.Lexicon
	lm         *hmm.Bigram
	models     *asr.Models
	recognizer *asr.Recognizer
	qaEngine   *qa.Engine
	corpus     *search.Index
	imageDB    *imm.Database
	immCfg     imm.MatchConfig
	commandRe  *regex.Regexp
	thisRe     *regex.Regexp
	batcher    *batch.Scheduler // nil unless Config.BatchScoring
}

// commandVerbs start device actions; the query classifier routes
// utterances beginning with one of these to the action path.
var commandVerbs = []string{
	"set", "call", "open", "play", "send", "start", "stop", "turn",
	"take", "show", "mute", "pause", "dial", "text",
}

// New builds the full pipeline: trains acoustic models on the synthetic
// speech substrate, trains the CRF tagger, builds the corpus, and indexes
// the image database.
//
// Acoustic training, the longest stage, shares nothing with the other
// three (each draws from its own seeded RNG), so it runs on its own
// goroutine while they build on the caller's; New joins it before the
// recognizer is built and before any return.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Workers > 0 {
		mat.SetWorkers(cfg.Workers)
	}
	p := &Pipeline{}
	p.lex, p.lm = kb.BuildLexicon()

	var models *asr.Models
	trained := make(chan error, 1)
	go func() {
		var err error
		models, err = asr.LoadOrTrain(cfg.ModelCache, p.lex.PhoneSet(), cfg.TrainASR)
		trained <- err
	}()

	p.corpus = kb.BuildCorpus(cfg.Corpus)
	samples := crf.Generate(cfg.CRFSamples, 21)
	sents, tags := crf.TokensAndTags(samples, false)
	tagger := crf.Train(sents, tags, crf.DefaultTrainConfig())
	p.qaEngine = qa.NewEngine(p.corpus, tagger, cfg.QAConfig)
	if cfg.SearchFrontend != "" {
		p.qaEngine.SetRetriever(&shard.Client{BaseURL: cfg.SearchFrontend})
	}

	labels := kb.ImageEntities()
	images := make([]*vision.Image, len(labels))
	for i, l := range labels {
		images[i] = vision.GenerateScene(l, vision.DefaultSceneConfig())
	}
	var imageErr error
	p.imageDB, imageErr = imm.BuildDatabase(labels, images)

	if err := <-trained; err != nil {
		return nil, fmt.Errorf("sirius: acoustic training: %w", err)
	}
	if imageErr != nil {
		return nil, fmt.Errorf("sirius: image database: %w", imageErr)
	}
	p.models = models
	var err error
	p.recognizer, err = asr.NewRecognizer(models, cfg.Engine, p.lex, p.lm, cfg.ASRConfig)
	if err != nil {
		return nil, fmt.Errorf("sirius: recognizer: %w", err)
	}

	p.immCfg = imm.DefaultMatchConfig()
	p.immCfg.Workers = cfg.IMMWorkers
	// Geometric verification turns raw descriptor votes into RANSAC
	// inlier counts, which cleanly separate true matches from texture
	// coincidences and make the minMatchVotes gate meaningful.
	p.immCfg.GeometricVerify = true

	p.commandRe = regex.MustCompile("^(" + strings.Join(commandVerbs, "|") + ")( |$)")
	p.thisRe = regex.MustCompile(`this (\w+)`)

	if cfg.BatchScoring {
		p.batcher = batch.New(batch.Config{Score: p.recognizer.ScoreBatch})
		p.recognizer.SetBatcher(p.batcher)
	}
	return p, nil
}

// Batcher exposes the cross-request batch scheduler (nil when batching
// is disabled) so a serving host can publish its metrics.
func (p *Pipeline) Batcher() *batch.Scheduler { return p.batcher }

// Close releases background resources (the batch scheduler's worker).
// Safe on a pipeline without batching and safe to call more than once.
func (p *Pipeline) Close() {
	if p.batcher != nil {
		p.batcher.Close()
	}
}

// Lexicon exposes the ASR vocabulary (for synthesizing test queries).
func (p *Pipeline) Lexicon() *hmm.Lexicon { return p.lex }

// ImageDB exposes the image-matching database (for workload generators).
func (p *Pipeline) ImageDB() *imm.Database { return p.imageDB }

// classifyText is the query classifier (QC in Figure 2): commands start
// with an imperative device verb, everything else is a question.
func (p *Pipeline) classifyText(text string) Kind {
	t := strings.ToLower(strings.TrimSpace(text))
	if p.commandRe.MatchString(t) {
		return KindAction
	}
	return KindAnswer
}

// errEmptyQuery is returned by Process for a Request with no text,
// audio, or image — there is no pathway to select.
var errEmptyQuery = errors.New("sirius: empty query: provide audio, text, or text+image")

// errBadPrecision wraps Process failures caused by a Request.Precision
// value the pipeline cannot score: an unknown one, or "int8" on a GMM
// pipeline (a client input error, not a pipeline fault).
var errBadPrecision = errors.New("sirius: bad precision")

// Request is one query in the unified API: the populated fields select
// the pathway (Figure 2's VC/VQ/VIQ split).
//
//	Samples + Image -> ASR + IMM + QA (VIQ)
//	Samples         -> ASR + QC, then action or QA (VC/VQ)
//	Text + Image    -> IMM + QA (text-input VIQ)
//	Text            -> QC, then action or QA
type Request struct {
	Text    string        // pre-transcribed query (skips ASR)
	Samples []float64     // 16 kHz mono recording
	Image   *vision.Image // photo accompanying the query
	// Precision selects the acoustic scoring format for the voice
	// paths: "fp64" (or "" for it), or "int8" for the DNN's quantized
	// kernels.
	Precision string
}

// Process runs one query end to end, selecting the pathway from the
// request's populated fields. It is the single entry point for one-shot
// queries; streaming audio enters through NewStream instead. ctx bounds
// the query: every stage's hot loop checks it, so an expired or canceled
// query releases its cores mid-stage. When ctx carries a telemetry trace
// (see telemetry.StartTrace) every stage is recorded as a span with its
// component timings as children; ctx cancellation also reaches the
// cross-request batch scheduler when batching is enabled.
func (p *Pipeline) Process(ctx context.Context, req Request) (Response, error) {
	prec, err := asr.ParsePrecision(req.Precision)
	if err != nil {
		return Response{}, fmt.Errorf("%w: %q", errBadPrecision, req.Precision)
	}
	switch {
	case req.Samples != nil:
		return p.processVoice(ctx, req.Samples, req.Image, prec)
	case req.Text != "" && req.Image != nil:
		return p.processTextImage(ctx, req.Text, req.Image)
	case req.Text != "":
		return p.processText(ctx, req.Text)
	default:
		return Response{}, errEmptyQuery
	}
}

// NewStream opens an incremental ASR session on the pipeline's
// recognizer: callers push 16 kHz audio chunks and receive stabilized
// partial transcripts, then a final result bit-identical to the
// one-shot path (see asr.Stream). Deadlines govern the session through
// ctx.
func (p *Pipeline) NewStream(ctx context.Context, cfg asr.StreamConfig) (*asr.Stream, error) {
	return p.recognizer.NewStream(ctx, cfg)
}

// processText runs QC then the action path or QA on transcribed text.
// A canceled or expired request context aborts with ctx.Err(); a
// best-effort answer from the sharded search tier is marked Truncated.
func (p *Pipeline) processText(ctx context.Context, text string) (Response, error) {
	start := time.Now()
	resp := Response{Transcript: text}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	if p.classifyText(text) == KindAction {
		_, sp := telemetry.StartSpan(ctx, "action")
		resp.Kind = KindAction
		act := parseAction(text)
		resp.Action = act.Verb
		resp.ActionDetail = &act
		sp.End()
		resp.Latency.Total = time.Since(start)
		return resp, nil
	}
	resp.Kind = KindAnswer
	spanCtx, sp := telemetry.StartSpan(ctx, "qa")
	qaStart := time.Now()
	ans := p.qaEngine.AskContext(spanCtx, text)
	qaWall := time.Since(qaStart)
	sp.End()
	if err := ctx.Err(); err != nil {
		// The request died (deadline or client gone): nobody is left to
		// read a partial answer.
		return resp, err
	}
	resp.Truncated = ans.Truncated
	sp.AddTimed("stem", ans.Timings.Stemming)
	sp.AddTimed("regex", ans.Timings.Regex)
	sp.AddTimed("crf", ans.Timings.CRF)
	sp.AddTimed("retrieval", ans.Timings.Retrieval)
	resp.Answer = ans.Text
	resp.Evidence = ans.Evidence
	resp.Latency.QAStemming = ans.Timings.Stemming
	resp.Latency.QARegex = ans.Timings.Regex
	resp.Latency.QACRF = ans.Timings.CRF
	resp.Latency.QARetrieval = ans.Timings.Retrieval
	resp.Latency.QAFilterHits = ans.FilterHits
	resp.Latency.QAFilterTime = ans.FilterTime
	// QA is the service's wall time; the four component timers are the
	// parts of it Fig 9 names, and what they miss is QA's remainder.
	resp.Latency.QA = qaWall
	resp.Latency.Total = time.Since(start)
	return resp, nil
}

// recognize runs ASR under an "asr" span with component children. The
// context flows through to the batch scheduler (queue-wait spans,
// cancellation) when batching is enabled and into the Viterbi frame
// loop's cancellation checks. A precision the engine has no kernel for
// (int8 on the GMM bank) is the client's errBadPrecision.
func (p *Pipeline) recognize(ctx context.Context, samples []float64, prec asr.Precision) (asr.Result, error) {
	spanCtx, sp := telemetry.StartSpan(ctx, "asr")
	rec, err := p.recognizer.RecognizePrecision(spanCtx, samples, prec)
	sp.End()
	switch {
	case errors.Is(err, errors.ErrUnsupported):
		return rec, fmt.Errorf("%w: %v", errBadPrecision, err)
	case err != nil:
		return rec, fmt.Errorf("sirius: asr: %w", err)
	}
	sp.AddTimed("feature", rec.Timings.FeatureExtraction)
	sp.AddTimed("scoring", rec.Timings.Scoring)
	sp.AddTimed("search", rec.Timings.Search)
	return rec, nil
}

// processVoice runs the full voice path: ASR, then the text path for the
// transcript — QC and either the action path or QA (the VC and VQ
// pathways of Figure 2) or, with an image, the VIQ pathway, where the
// question is rewritten with the matched entity ("this restaurant" ->
// "luigis restaurant") and answered by QA.
func (p *Pipeline) processVoice(ctx context.Context, samples []float64, img *vision.Image, prec asr.Precision) (Response, error) {
	start := time.Now()
	rec, err := p.recognize(ctx, samples, prec)
	if err != nil {
		return Response{}, err
	}
	var resp Response
	if img != nil {
		resp, err = p.processTextImage(ctx, rec.Text, img)
	} else {
		resp, err = p.processText(ctx, rec.Text)
	}
	if err != nil {
		return Response{}, err
	}
	resp.Transcript = rec.Text
	resp.Precision = string(prec)
	resp.Latency.ASRFeature = rec.Timings.FeatureExtraction
	resp.Latency.ASRScoring = rec.Timings.Scoring
	resp.Latency.ASRSearch = rec.Timings.Search
	resp.Latency.ASR = rec.Timings.Total()
	resp.Latency.Total = time.Since(start)
	return resp, nil
}

// processTextImage runs IMM then QA — the text-input variant of the
// VIQ pathway. A dead request context aborts; a match it cut short is
// never used.
func (p *Pipeline) processTextImage(ctx context.Context, text string, img *vision.Image) (Response, error) {
	start := time.Now()
	spanCtx, sp := telemetry.StartSpan(ctx, "imm")
	match := p.imageDB.MatchContext(spanCtx, img, p.immCfg)
	sp.End()
	sp.AddTimed("fe", match.FeatureExtraction)
	sp.AddTimed("fd", match.FeatureDescription)
	sp.AddTimed("search", match.Search)
	if err := ctx.Err(); err != nil {
		return Response{Transcript: text}, err
	}
	matched := match.Votes >= minMatchVotes
	rewritten := text
	if matched {
		rewritten = p.rewriteWithEntity(text, match.Label)
	}
	resp, err := p.processText(ctx, rewritten)
	if err != nil {
		return Response{Transcript: text}, err
	}
	resp.Transcript = text
	if matched {
		resp.MatchedImage = match.Label
	}
	resp.Latency.IMMFE = match.FeatureExtraction
	resp.Latency.IMMFD = match.FeatureDescription
	resp.Latency.IMMSearch = match.Search
	resp.Latency.IMM = match.FeatureExtraction + match.FeatureDescription + match.Search
	resp.Latency.Total = time.Since(start)
	return resp, nil
}

// rewriteWithEntity substitutes the IMM-matched entity for the deictic
// "this <noun>" phrase in the query.
func (p *Pipeline) rewriteWithEntity(text, entity string) string {
	t := strings.ToLower(text)
	if idx := p.thisRe.FindStringIndex(t); idx != nil {
		return t[:idx[0]] + entity + t[idx[1]:]
	}
	return t
}
