package main

import (
	"context"
	"fmt"
	"time"

	"sirius/internal/asr"
	"sirius/internal/imm"
	"sirius/internal/kb"
	"sirius/internal/nlp/crf"
	"sirius/internal/qa"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/sirius"
)

// kit is the set of modules the layer replay calls directly. A pipeline
// keeps its own behind unexported fields, so the kit is assembled from
// the same public constructors in the way sirius.New assembles them, and
// the replay checks that it transcribes and answers as the pipeline did.
type kit struct {
	models *asr.Models
	rec    *asr.Recognizer
	corpus *search.Index
	qa     *qa.Engine
	imm    imm.MatchConfig
}

func newKit(cfg sirius.Config) (*kit, error) {
	lex, lm := kb.BuildLexicon()
	models, err := asr.TrainModels(lex.PhoneSet(), cfg.TrainASR)
	if err != nil {
		return nil, err
	}
	models.Quantize()
	rec, err := asr.NewRecognizer(models, cfg.Engine, lex, lm, cfg.ASRConfig)
	if err != nil {
		return nil, err
	}
	rec.EnableRescoring(kb.BuildTrigram(lex), 3.0, 4)
	k := &kit{models: models, rec: rec, corpus: kb.BuildCorpus(cfg.Corpus), imm: imm.DefaultMatchConfig()}
	sents, tags := crf.TokensAndTags(crf.Generate(cfg.CRFSamples, 21), false)
	k.qa = qa.NewEngine(k.corpus, crf.Train(sents, tags, crf.DefaultTrainConfig()), cfg.QAConfig)
	k.imm.Workers = cfg.IMMWorkers
	k.imm.GeometricVerify = true
	return k, nil
}

// replay holds what the direct calls measured: one duration per call,
// keyed by the function called, plus the counts they returned.
type replay struct {
	tr       *tracer
	ms       map[string][]float64
	counts   map[string][]float64
	mismatch string
}

// call times one direct call into a module and records it as a span.
func (r *replay) call(req, name string, f func()) time.Duration {
	sp := span{Req: req, Name: name, Start: r.tr.now()}
	f()
	sp.End = r.tr.now()
	r.tr.add(sp)
	r.ms[name] = append(r.ms[name], ms(sp.dur()))
	return sp.dur()
}

func (r *replay) count(name string, v float64) { r.counts[name] = append(r.counts[name], v) }

func (r *replay) differ(format string, args ...any) {
	if r.mismatch == "" {
		r.mismatch = fmt.Sprintf(format, args...)
	}
}

// runReplay walks the generated inputs in request order and calls each
// layer's public functions directly, one span per call, until every
// input has been replayed once or the budget is spent.
func runReplay(t *tiers, k *kit, ops []op, order []int, budget time.Duration, tr *tracer) *replay {
	r := &replay{tr: tr, ms: map[string][]float64{}, counts: map[string][]float64{}}
	ctx := context.Background()
	begin := time.Now()
	seen := map[int]bool{}
	for _, i := range order {
		if len(seen) == len(ops) || (len(seen) > 0 && time.Since(begin) > budget) {
			break
		}
		if seen[i] {
			continue
		}
		seen[i] = true
		o := &ops[i]
		id := fmt.Sprintf("replay-%d", i)
		switch {
		case o.path == "/v1/search":
			r.search(t, o, id)
		case o.path == "/v1/stream":
			r.stream(ctx, t, k, o, id)
		default:
			r.query(ctx, t, k, o, id)
		}
	}
	return r
}

func (r *replay) query(ctx context.Context, t *tiers, k *kit, o *op, id string) {
	r.call(id, "sirius.Pipeline.Process", func() {
		if resp, err := t.pipeline.Process(ctx, o.req); err != nil || diffResponse(o.want, resp) != "" {
			r.differ("replayed Process on %q differs from the oracle (err %v)", o.query.Text, err)
		}
	})
	if o.req.Samples != nil {
		r.call(id, "audio.FrontEnd.Extract", func() { k.models.FrontEnd.Extract(o.req.Samples) })
		prec, _ := asr.ParsePrecision(o.req.Precision)
		var res asr.Result
		var err error
		d := r.call(id, "asr.Recognizer.RecognizePrecision", func() { res, err = k.rec.RecognizePrecision(ctx, o.req.Samples, prec) })
		if err != nil || res.Text != o.want.Transcript {
			r.differ("kit recognizer heard %q, pipeline %q (err %v)", res.Text, o.want.Transcript, err)
		}
		r.count("asr.frames", float64(res.Timings.Frames))
		r.count("asr.rtf", d.Seconds()/(float64(len(o.req.Samples))/16000))
	}
	if o.req.Image != nil {
		r.call(id, "imm.Database.MatchContext", func() { t.pipeline.ImageDB().MatchContext(ctx, o.req.Image, k.imm) })
	}
	if o.want.Kind == sirius.KindAnswer && o.req.Image == nil {
		var ans qa.Answer
		r.call(id, "qa.Engine.AskContext", func() { ans = k.qa.AskContext(ctx, o.want.Transcript) })
		if ans.Text != o.want.Answer {
			r.differ("kit QA answered %q, pipeline %q", ans.Text, o.want.Answer)
		}
		r.call(id, "search.Index.Search", func() { k.corpus.Search(o.want.Transcript, qa.DefaultConfig().TopK) })
	}
}

// stream replays one session chunk by chunk: the pipeline's own
// incremental recognizer, and beside it a bare stream extractor fed the
// same chunks, so the front end's share of a Push is visible.
func (r *replay) stream(ctx context.Context, t *tiers, k *kit, o *op, id string) {
	st, err := t.pipeline.NewStream(ctx, asr.StreamConfig{})
	if err != nil {
		r.differ("NewStream: %v", err)
		return
	}
	ext := k.models.FrontEnd.NewStreamExtractor()
	partials := 0
	for off := 0; off < len(o.req.Samples); off += streamChunk {
		chunk := o.req.Samples[off:min(off+streamChunk, len(o.req.Samples))]
		r.call(id, "audio.StreamExtractor.Push", func() { ext.Push(chunk) })
		r.call(id, "asr.Stream.Push", func() {
			if p, err := st.Push(chunk); err == nil && p != nil {
				partials++
			}
		})
	}
	var res asr.Result
	r.call(id, "asr.Stream.Finish", func() { res, err = st.Finish() })
	if err != nil || res.Text != o.want.Transcript {
		r.differ("replayed stream final %q, one-shot %q (err %v)", res.Text, o.want.Transcript, err)
	}
	r.count("asr.partials", float64(partials))
	r.count("asr.frames", float64(res.Timings.Frames))
	r.count("asr.rtf", res.Timings.Total().Seconds()/(float64(len(o.req.Samples))/16000))
	// The session's stage split is read from the result Finish returns.
	r.ms["asr.total"] = append(r.ms["asr.total"], ms(res.Timings.Total()))
	r.ms["audio.mfcc"] = append(r.ms["audio.mfcc"], ms(res.Timings.FeatureExtraction))
	r.ms["gmm.score"] = append(r.ms["gmm.score"], ms(res.Timings.Scoring))
	r.ms["hmm.search"] = append(r.ms["hmm.search"], ms(res.Timings.Search))
}

func (r *replay) search(t *tiers, o *op, id string) {
	r.call(id, "search.Index.Search", func() { t.full.Search(o.search, searchK) })
	terms := search.QueryTerms(o.search)
	resps := make([]shard.Response, len(t.shards))
	candidates := 0
	for s, ix := range t.shards {
		r.call(id, "shard.Exec", func() {
			resps[s] = shard.Exec(ix, shard.Request{Terms: terms, K: shard.Overfetch(searchK)}, s, len(t.shards))
		})
		candidates += len(resps[s].Postings)
	}
	var hits []shard.SearchHit
	r.call(id, "shard.Merge", func() { hits = shard.Merge(terms, resps, searchK) })
	if d := diffHits(o.wantHits, hits); d != "" {
		r.differ("replayed Exec+Merge: %s", d)
	}
	r.count("shard.candidates", float64(candidates))
}
