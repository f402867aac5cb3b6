// Package qa implements Sirius' question-answering service, a stand-in
// for OpenEphyra (paper §2.3.3, Figure 6). The pipeline is the same
// shape: the question is analyzed with regular-expression question
// patterns and stemming, a web-search query retrieves candidate
// documents, and a bank of document filters — keyword-overlap scoring
// (stemmer), answer-pattern extraction (regex) and part-of-speech
// validation (CRF) — scores candidate answers, whose aggregate ranks the
// final answer. Per the paper's Fig 8c, QA latency is driven by how many
// filter hits a query produces; this implementation reports that count.
package qa

import (
	"context"
	"strings"
	"time"

	"sirius/internal/nlp/crf"
	"sirius/internal/nlp/regex"
	"sirius/internal/nlp/stemmer"
	"sirius/internal/search"
	"sirius/internal/telemetry"
)

// Timings decomposes QA latency into the paper's hot components (Fig 9:
// stemmer + regex + CRF are ~85% of QA cycles; search is studied
// elsewhere and reported separately). Regex covers the question
// patterns, the fixed document-filter battery and the answer patterns.
// The timers do not overlap, so their sum is at most the service's wall
// time; the rest (scoring maps, aggregation) is QA's remainder.
type Timings struct {
	Stemming  time.Duration
	Regex     time.Duration
	CRF       time.Duration
	Retrieval time.Duration
}

// Answer is the QA service's response to one question.
type Answer struct {
	Text       string  // best answer ("" if none found)
	Score      float64 // aggregated evidence score
	RunnerUp   string  // second-best candidate
	Confidence float64 // margin of best over runner-up, in (0, 1]
	// Evidence is the highest-scoring sentence that produced the answer —
	// the justification a user-facing assistant shows with its response.
	Evidence   string
	FilterHits int // document-filter pattern hits (Fig 8c x-axis)
	// FilterTime is the time spent inside the per-hit document filters
	// (answer-pattern scans, POS validation, fallback extraction) — the
	// cost that FilterHits drives (Fig 8c y-axis).
	FilterTime time.Duration
	DocsSeen   int // retrieved documents examined
	// Truncated reports that the context was canceled or its deadline expired
	// mid-retrieval: the answer aggregates only the documents filtered so
	// far (graceful degradation rather than a hard failure).
	Truncated bool
	// PartialRetrieval reports that the sharded search tier answered
	// best-effort (at least one corpus shard missed its budget), so the
	// candidate pool may be narrower than the full corpus would give.
	// Implies Truncated.
	PartialRetrieval bool
	Timings          Timings
}

// questionPattern maps a question regex to a relation whose answer
// patterns extract candidates. This mirrors OpenEphyra's question-pattern
// library.
type questionPattern struct {
	re       *regex.Regexp
	relation string
	// subjGroup is the capture group holding the subject.
	subjGroup int
}

// answerTemplate renders a relation + subject into extraction regexes;
// SUBJ is replaced by the escaped subject.
var answerTemplates = map[string][]string{
	"capital":  {`(\w+) is the capital of SUBJ`, `the capital of SUBJ is (\w+)`, `SUBJ has its capital at (\w+)`},
	"author":   {`(\w+) is the author of SUBJ`, `SUBJ was written by (\w+)`, `the author of SUBJ is (\w+)`},
	"location": {`SUBJ is located in (\w+)`, `SUBJ can be found in (\w+)`, `SUBJ is in (\w+)`},
	"president": {`(\w+) is the president of SUBJ`, `the current president of SUBJ is (\w+)`,
		`(\w+) was elected president of SUBJ`},
	"founder":  {`(\w+) founded SUBJ`, `SUBJ was founded by (\w+)`},
	"name":     {`SUBJ is the (\w+)`, `the (\w+) is SUBJ`},
	"closing":  {`SUBJ closes at (\w+)`, `the closing time of SUBJ is (\w+)`},
	"language": {`(\w+) is spoken in SUBJ`, `the language of SUBJ is (\w+)`},
	"currency": {`the currency of SUBJ is the (\w+)`, `SUBJ uses the (\w+)`},
	"opening":  {`SUBJ opens at (\w+)`, `the opening time of SUBJ is (\w+)`},
	"rating":   {`SUBJ has a rating of (\w+) stars`, `the rating of SUBJ is (\w+)`},
}

// Retriever is a pluggable document-retrieval stage. The sharded
// search tier's client (internal/shard.Client) satisfies it
// structurally — the signature uses only plain search values, so this
// package never imports the shard tier. partial reports a best-effort
// result set (some corpus shards missed their budget).
type Retriever interface {
	Retrieve(ctx context.Context, query string, k int) (results []search.Result, partial bool, err error)
}

// Engine is a ready-to-serve QA service.
type Engine struct {
	index      *search.Index
	retriever  Retriever // when set, retrieval goes here; index is the fallback
	tagger     *crf.Tagger
	questions  []questionPattern
	docFilters []*regex.Regexp
	topK       int
	stopwords  map[string]bool
	numWords   map[string]bool
}

// Config tunes the engine.
type Config struct {
	// TopK retrieved documents run through the filters.
	TopK int
}

// DefaultConfig matches the benchmark setup.
func DefaultConfig() Config { return Config{TopK: 10} }

// NewEngine builds a QA engine over a corpus. The CRF tagger validates
// candidate answer types; train one with crf.Train (see crf.Generate) or
// pass nil to skip POS validation.
func NewEngine(ix *search.Index, tagger *crf.Tagger, cfg Config) *Engine {
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	e := &Engine{index: ix, tagger: tagger, topK: cfg.TopK}
	e.questions = []questionPattern{
		{regex.MustCompile(`^what is the capital of+ (.+)$`), "capital", 1},
		{regex.MustCompile(`^who is the author of+ (.+)$`), "author", 1},
		{regex.MustCompile(`^who wrote (.+)$`), "author", 1},
		{regex.MustCompile(`^where is (.+)$`), "location", 1},
		{regex.MustCompile(`^who is the current president of+ (.+)$`), "president", 1},
		{regex.MustCompile(`^who is the president of+ (.+)$`), "president", 1},
		{regex.MustCompile(`^who founded (.+)$`), "founder", 1},
		{regex.MustCompile(`^what language is spoken in (.+)$`), "language", 1},
		{regex.MustCompile(`^what currency does (.+) use$`), "currency", 1},
		{regex.MustCompile(`^when does (.+) close$`), "closing", 1},
		{regex.MustCompile(`^when does (.+) open$`), "opening", 1},
		{regex.MustCompile(`^what is the rating of+ (.+)$`), "rating", 1},
		// Generic "what is the X" last: it would shadow the more specific
		// what-patterns above.
		{regex.MustCompile(`^what is (the .+)$`), "name", 1},
	}
	e.stopwords = map[string]bool{}
	for _, w := range []string{"the", "a", "an", "of", "is", "was", "are", "to", "in", "and",
		"who", "what", "where", "when", "why", "how", "does", "do", "this", "current"} {
		e.stopwords[w] = true
	}
	e.numWords = map[string]bool{}
	for _, w := range crf.NumberWords() {
		e.numWords[w] = true
	}
	// The fixed document-filter battery, run on every passage that passes
	// the keyword filter — OpenEphyra style, where the same filter suite
	// processes every candidate passage regardless of the question. Each
	// filter contributes a small evidence boost when it fires.
	e.docFilters = []*regex.Regexp{
		regex.MustCompile(`\d+`),
		regex.MustCompile(`\b(one|two|three|four|five|six|seven|eight|nine|ten)\b`),
		regex.MustCompile(`\w+ (is|was|are) \w+`),
		regex.MustCompile(`(capital|president|author|founder|river|mountain|rating|close|open)`),
		regex.MustCompile(`\w+ed\b`),
		regex.MustCompile(`\b\w+s\b`),
		regex.MustCompile(`(in|of|at|near) \w+`),
		regex.MustCompile(`^the \w+`),
	}
	return e
}

// SetRetriever routes the retrieval stage through r (the sharded
// search tier); the embedded index remains the fallback when r errors.
// Pass nil to restore embedded-index retrieval. Call before serving —
// not safe concurrently with AskContext.
func (e *Engine) SetRetriever(r Retriever) { e.retriever = r }

// sentenceOverlap is one document sentence with its keyword overlap: how
// many of the question's keywords, duplicates counted, are the stem of
// one of its tokens.
type sentenceOverlap struct {
	text    string
	overlap int
}

// docSentences splits a document into sentences and counts each one's
// keyword overlap, appending them to out[:0]. Every query restems the
// documents it retrieved, as OpenEphyra does: that is the stemmer's
// share of Fig 9, timed once per document. seen is scratch with a slot
// per keyword.
func docSentences(body string, keywords []string, seen []bool, out []sentenceOverlap, tm *Timings) []sentenceOverlap {
	start := time.Now()
	out = out[:0]
	for rest := body; rest != ""; {
		var sentence string
		sentence, rest, _ = strings.Cut(rest, ".")
		if sentence = strings.TrimSpace(sentence); sentence == "" {
			continue
		}
		clear(seen)
		overlap := 0
		for _, t := range search.Tokenize(sentence) {
			stem := stemmer.Stem(t)
			for k, kw := range keywords {
				if !seen[k] && kw == stem {
					seen[k] = true
					overlap++
				}
			}
		}
		out = append(out, sentenceOverlap{text: sentence, overlap: overlap})
	}
	tm.Stemming += time.Since(start)
	return out
}

// analysis is the outcome of question analysis.
type analysis struct {
	relation   string
	subject    string
	extractors []*regex.Regexp // compiled answer patterns
	keywords   []string        // stemmed content words
	wantNum    bool            // expected answer type is numeric
}

// escapeSubject escapes regex metacharacters in a subject string.
func escapeSubject(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '.', '*', '+', '?', '[', ']', '(', ')', '^', '$', '\\', '|':
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// analyze runs the question-pattern library and keyword extraction.
func (e *Engine) analyze(question string, tm *Timings) analysis {
	q := strings.ToLower(strings.TrimSpace(strings.Trim(question, "?!. ")))
	var a analysis
	start := time.Now()
	for _, qp := range e.questions {
		if m := qp.re.FindStringSubmatch(q); m != nil {
			a.relation = qp.relation
			a.subject = strings.TrimSpace(m[qp.subjGroup])
			break
		}
	}
	if a.relation != "" {
		subj := escapeSubject(a.subject)
		for _, tpl := range answerTemplates[a.relation] {
			if re, err := regex.Compile(strings.ReplaceAll(tpl, "SUBJ", subj)); err == nil {
				a.extractors = append(a.extractors, re)
			}
		}
	}
	a.wantNum = a.relation == "closing" || a.relation == "opening" || a.relation == "rating" ||
		strings.HasPrefix(q, "when") || strings.HasPrefix(q, "how many")
	tm.Regex += time.Since(start)

	start = time.Now()
	for _, w := range search.Tokenize(q) {
		if !e.stopwords[w] {
			a.keywords = append(a.keywords, stemmer.Stem(w))
		}
	}
	tm.Stemming += time.Since(start)
	return a
}

// AskContext is Ask with a cancellation checkpoint between retrieved
// documents: when ctx expires mid-filtering, the loop stops and the
// answer is aggregated from the documents examined so far, marked
// Truncated — the filter battery is the QA cycle sink (Fig 9), so
// per-document is the granularity that releases cores promptly.
func (e *Engine) AskContext(ctx context.Context, question string) Answer {
	var ans Answer
	a := e.analyze(question, &ans.Timings)

	var results []search.Result
	ans.Timings.Retrieval = telemetry.WithKernel(ctx, "qa", "retrieval", func(kctx context.Context) {
		if e.retriever != nil {
			r, partial, err := e.retriever.Retrieve(kctx, question, e.topK)
			if err == nil {
				results = r
				if partial {
					ans.PartialRetrieval = true
					ans.Truncated = true
				}
				return
			}
			// The remote tier failed outright (distinct from answering
			// partially): degrade to the embedded index if one exists.
			if e.index == nil {
				return
			}
		}
		results = e.index.Search(question, e.topK)
	})

	scores := map[string]float64{}
	evidence := map[string]string{}
	evidenceScore := map[string]float64{}
	// The filter battery (stemmer + regex + CRF, the Fig 9 cycle sink)
	// runs under stage/kernel pprof labels; its per-kernel wall split is
	// recorded from ans.Timings after the loop, since the kernels
	// interleave per sentence at too fine a grain to label separately.
	e.filterDocs(ctx, results, a, &ans, scores, evidence, evidenceScore)
	var second float64
	for text, s := range scores {
		switch {
		case s > ans.Score || (s == ans.Score && (ans.Text == "" || text < ans.Text)):
			if ans.Text != "" {
				second, ans.RunnerUp = ans.Score, ans.Text
			}
			ans.Text = text
			ans.Score = s
		case s > second:
			second, ans.RunnerUp = s, text
		}
	}
	if ans.Score > 0 {
		ans.Confidence = (ans.Score - second) / ans.Score
	}
	ans.Evidence = evidence[ans.Text]
	telemetry.RecordKernel("qa", "stemmer", ans.Timings.Stemming)
	telemetry.RecordKernel("qa", "regex", ans.Timings.Regex)
	telemetry.RecordKernel("qa", "crf", ans.Timings.CRF)
	return ans
}

// filterDocs runs the retrieved documents through the filter battery,
// accumulating candidate scores and evidence. It executes under
// stage=qa/kernel=filters pprof labels so profile samples of the QA
// cycle sink are attributable even before the per-kernel wall split in
// ans.Timings is recorded.
func (e *Engine) filterDocs(ctx context.Context, results []search.Result, a analysis, ans *Answer, scores map[string]float64, evidence map[string]string, evidenceScore map[string]float64) {
	telemetry.WithLabels(ctx, "qa", "filters", func(ctx context.Context) {
		e.filterDocsLabeled(ctx, results, a, ans, scores, evidence, evidenceScore)
	})
}

func (e *Engine) filterDocsLabeled(ctx context.Context, results []search.Result, a analysis, ans *Answer, scores map[string]float64, evidence map[string]string, evidenceScore map[string]float64) {
	var start time.Time
	seen := make([]bool, len(a.keywords))
	var sents []sentenceOverlap
	for rank, r := range results {
		if ctx.Err() != nil {
			ans.Truncated = true
			break
		}
		ans.DocsSeen++
		docWeight := 1.0 / float64(rank+1)
		sents = docSentences(r.Doc.Body, a.keywords, seen, sents, &ans.Timings)
		for _, sent := range sents {
			if sent.overlap == 0 {
				continue
			}
			sentence := sent.text
			tagged := taggedSentence{text: sentence}
			overlap := float64(sent.overlap)
			// A sentence passing the keyword filter is a document-filter
			// hit: it flows into the pattern and POS filters below, so
			// hits are what drive QA latency (the paper's Fig 8c).
			ans.FilterHits++
			base := overlap * docWeight
			filterStart := time.Now()
			// Fixed filter battery: passages carrying the structures the
			// battery detects (copulas, numbers, domain nouns) are better
			// answer sources; each firing filter adds a small boost. The
			// battery and the answer patterns below are both regex time.
			start = filterStart
			for _, df := range e.docFilters {
				if df.MatchString(sentence) {
					base *= 1.05
				}
			}

			// Regex answer-pattern filter.
			var candidates []string
			for _, re := range a.extractors {
				if m := re.FindStringSubmatch(sentence); m != nil {
					candidates = append(candidates, m[1])
					ans.FilterHits++
				}
			}
			ans.Timings.Regex += time.Since(start)

			for _, c := range candidates {
				gain := (base + 1) * e.typeBonus(&tagged, c, a.wantNum, &ans.Timings)
				scores[c] += gain
				if gain > evidenceScore[c] {
					evidenceScore[c] = gain
					evidence[c] = sentence
				}
			}
			// Generic fallback extraction: content words of matching
			// sentences that are not query terms; weak evidence, used
			// when no template matched (e.g. noisy ASR transcripts).
			if len(a.extractors) == 0 {
				for _, tok := range search.Tokenize(sentence) {
					if e.stopwords[tok] || containsWord(a.keywords, stemWord(tok, &ans.Timings)) {
						continue
					}
					if a.wantNum && !e.numWords[tok] && !isNumeric(tok) {
						continue
					}
					scores[tok] += base * 0.2 * e.typeBonus(&tagged, tok, a.wantNum, &ans.Timings)
					ans.FilterHits++
				}
			}
			ans.FilterTime += time.Since(filterStart)
		}
	}
}

func stemWord(w string, tm *Timings) string {
	start := time.Now()
	defer func() { tm.Stemming += time.Since(start) }()
	return stemmer.Stem(w)
}

func containsWord(ws []string, w string) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

func isNumeric(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		if w[i] < '0' || w[i] > '9' {
			return false
		}
	}
	return true
}

// taggedSentence is a passing sentence with its tokens and CRF tags, tagged
// on its first candidate and reused for the rest.
type taggedSentence struct {
	text       string
	toks, tags []string
	done       bool
}

// typeBonus uses the CRF tagger to check the candidate's part of speech
// in context; candidates of the expected type get boosted. This is the
// CRF share of the QA cycle budget (Fig 9).
func (e *Engine) typeBonus(sent *taggedSentence, candidate string, wantNum bool, tm *Timings) float64 {
	if e.tagger == nil {
		return 1
	}
	if !sent.done {
		start := time.Now()
		sent.toks = search.Tokenize(sent.text)
		sent.tags = e.tagger.Tag(sent.toks)
		sent.done = true
		tm.CRF += time.Since(start)
	}
	for i, tok := range sent.toks {
		if tok != candidate {
			continue
		}
		tag := sent.tags[i]
		if wantNum {
			if tag == "NUM" || e.numWords[tok] || isNumeric(tok) {
				return 1.5
			}
			return 0.75
		}
		if tag == "NOUN" || tag == "PROPN" {
			return 1.5
		}
		return 1
	}
	return 1
}
