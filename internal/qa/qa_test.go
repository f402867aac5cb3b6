package qa

import (
	"context"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"sirius/internal/kb"
	"sirius/internal/nlp/crf"
	"sirius/internal/search"
)

var sharedEngine *Engine

func engine() *Engine {
	if sharedEngine == nil {
		ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
		samples := crf.Generate(300, 21)
		sents, tags := crf.TokensAndTags(samples, false)
		tagger := crf.Train(sents, tags, crf.DefaultTrainConfig())
		sharedEngine = NewEngine(ix, tagger, DefaultConfig())
	}
	return sharedEngine
}

func TestAnswersVoiceQueryInputSet(t *testing.T) {
	e := engine()
	correct := 0
	for _, q := range kb.VoiceQueries {
		ans := e.Ask(q.Text)
		if ans.Text == q.Want {
			correct++
		} else {
			t.Logf("%s: %q -> %q (want %q, score %.2f hits %d)", q.ID, q.Text, ans.Text, q.Want, ans.Score, ans.FilterHits)
		}
	}
	if correct < 14 {
		t.Fatalf("answered %d/16 VQ queries correctly", correct)
	}
}

func TestAnswersRewrittenVIQQueries(t *testing.T) {
	// The Sirius pipeline rewrites "this restaurant" to the IMM-matched
	// entity before calling QA; test the rewritten forms.
	e := engine()
	cases := rewrittenVIQ
	correct := 0
	for q, want := range cases {
		if got := e.Ask(q); got.Text == want {
			correct++
		} else {
			t.Logf("%q -> %q want %q", q, got.Text, want)
		}
	}
	if correct < 4 {
		t.Fatalf("answered %d/%d rewritten VIQ queries", correct, len(cases))
	}
}

func TestUnanswerableQuestion(t *testing.T) {
	e := engine()
	ans := e.Ask("what is the meaning of life")
	// Must not crash; may return weak or empty answer with low score.
	if ans.Score < 0 {
		t.Fatalf("negative score: %+v", ans)
	}
}

func TestTimingsAndFilterHitsPopulated(t *testing.T) {
	e := engine()
	ans := e.Ask("what is the capital of italy")
	if ans.Timings.Retrieval <= 0 || ans.Timings.Stemming <= 0 {
		t.Fatalf("timings: %+v", ans.Timings)
	}
	if ans.Timings.Total() <= 0 {
		t.Fatal("total must be positive")
	}
	if ans.FilterHits == 0 {
		t.Fatal("capital query must hit answer patterns")
	}
	if ans.DocsSeen == 0 {
		t.Fatal("docs must be retrieved")
	}
}

func TestFilterHitsVaryAcrossQueries(t *testing.T) {
	// Fig 8c: latency (here, filter work) varies with query; assert the
	// input set produces a non-trivial spread of filter hits.
	e := engine()
	minHits, maxHits := 1<<30, -1
	for _, q := range kb.VoiceQueries {
		ans := e.Ask(q.Text)
		if ans.FilterHits < minHits {
			minHits = ans.FilterHits
		}
		if ans.FilterHits > maxHits {
			maxHits = ans.FilterHits
		}
	}
	if maxHits <= minHits {
		t.Fatalf("no filter-hit variability: min=%d max=%d", minHits, maxHits)
	}
}

func TestNilTaggerWorks(t *testing.T) {
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	e := NewEngine(ix, nil, Config{TopK: 5})
	ans := e.Ask("what is the capital of france")
	if ans.Text != "paris" {
		t.Fatalf("nil-tagger engine answered %q", ans.Text)
	}
	if ans.Timings.CRF != 0 {
		t.Fatal("nil tagger must not accrue CRF time")
	}
}

func TestEscapeSubject(t *testing.T) {
	if got := escapeSubject("a.b(c)"); got != `a\.b\(c\)` {
		t.Fatalf("escape: %q", got)
	}
	// A subject with metacharacters must not break analysis.
	e := engine()
	_ = e.Ask("where is c++ (the language)")
}

// TestAnswerPatternsCompiledOnDemand: every answer template holds the
// question's subject verbatim, so a question compiles its templates only
// once a sentence that passes the keyword filter holds the subject, and
// then once for all such sentences. A question whose subject no retrieved
// sentence holds, however long, compiles nothing.
func TestAnswerPatternsCompiledOnDemand(t *testing.T) {
	e := engine()
	for _, c := range []struct {
		question, subject string
		compiled          bool
	}{
		{"what is the capital of italy", "italy", true},
		{"what is the capital of atlantis", "atlantis", false},
		{"what is the capital of " + strings.Repeat("italy and ", 1000) + "france", "", false},
	} {
		var ans Answer
		a := e.analyze(c.question, &ans.Timings)
		if len(a.templates) != len(answerTemplates["capital"]) {
			t.Fatalf("%.40q: %d templates, want the capital relation's %d", c.question, len(a.templates), len(answerTemplates["capital"]))
		}
		if a.extractors != nil {
			t.Fatalf("%.40q: analysis compiled %d answer patterns before any sentence", c.question, len(a.extractors))
		}
		results := e.index.Search(c.question, e.topK)
		scores := map[string]float64{}
		e.filterDocs(context.Background(), results, &a, &ans, scores, map[string]string{}, map[string]float64{})
		if ans.FilterHits == 0 {
			t.Fatalf("%.40q: no sentence passed the keyword filter", c.question)
		}
		if !c.compiled {
			if a.extractors != nil {
				t.Errorf("%.40q: compiled %d answer patterns, though no sentence holds the subject", c.question, len(a.extractors))
			}
			continue
		}
		var holding []string
		for _, r := range results {
			for _, sent := range strings.Split(r.Doc.Body, ".") {
				if strings.Contains(sent, c.subject) {
					holding = append(holding, sent)
				}
			}
		}
		if len(holding) < 2 {
			t.Fatalf("%q: %d retrieved sentences hold %q, want several", c.question, len(holding), c.subject)
		}
		if len(a.extractors) != len(a.templates) {
			t.Fatalf("%q: %d answer patterns for %d templates", c.question, len(a.extractors), len(a.templates))
		}
		compiled := a.extractors
		if again := a.answerPatterns(holding[len(holding)-1]); !slices.Equal(again, compiled) {
			t.Errorf("%q: the answer patterns were compiled again", c.question)
		}
		if scores["rome"] == 0 {
			t.Errorf("%q: the answer patterns found no rome: %v", c.question, scores)
		}
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	e := NewEngine(ix, nil, Config{TopK: -1})
	if e.topK != 10 {
		t.Fatalf("TopK default not applied: %d", e.topK)
	}
}

func BenchmarkAsk(b *testing.B) {
	e := engine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ask(kb.VoiceQueries[i%len(kb.VoiceQueries)].Text)
	}
}

func TestAnswerConfidence(t *testing.T) {
	e := engine()
	strong := e.Ask("what is the capital of france")
	if strong.Text != "paris" {
		t.Fatalf("answer %q", strong.Text)
	}
	if strong.Confidence <= 0 || strong.Confidence > 1 {
		t.Fatalf("confidence %v out of range", strong.Confidence)
	}
	if strong.RunnerUp == strong.Text {
		t.Fatal("runner-up must differ from the answer")
	}
	// An unanswerable question yields zero confidence or a weak margin.
	weak := e.Ask("what is the meaning of life")
	if weak.Score > 0 && weak.Confidence > strong.Confidence {
		t.Fatalf("unanswerable confidence %v above answered %v", weak.Confidence, strong.Confidence)
	}
}

func TestGeneralizationBeyondInputSet(t *testing.T) {
	// Relations that never appear in the 42-query input set still resolve
	// through the same pattern library — the engine is not a lookup table
	// over the benchmark queries.
	e := engine()
	cases := generalization
	correct := 0
	for q, want := range cases {
		if got := e.Ask(q); got.Text == want {
			correct++
		} else {
			t.Logf("%q -> %q want %q", q, got.Text, want)
		}
	}
	if correct < 3 {
		t.Fatalf("generalization: %d/%d", correct, len(cases))
	}
}

func TestAnswerEvidence(t *testing.T) {
	e := engine()
	ans := e.Ask("what is the capital of italy")
	if ans.Text != "rome" {
		t.Fatalf("answer %q", ans.Text)
	}
	if ans.Evidence == "" || !strings.Contains(ans.Evidence, "rome") {
		t.Fatalf("evidence %q must contain the answer", ans.Evidence)
	}
	if !strings.Contains(ans.Evidence, "italy") {
		t.Fatalf("evidence %q must mention the subject", ans.Evidence)
	}
}

// stubRetriever satisfies Retriever with canned behavior: it can relay
// to a real index, tag results partial, or fail outright.
type stubRetriever struct {
	ix      *search.Index
	partial bool
	err     error
	calls   int
}

func (s *stubRetriever) Retrieve(ctx context.Context, query string, k int) ([]search.Result, bool, error) {
	s.calls++
	if s.err != nil {
		return nil, false, s.err
	}
	return s.ix.Search(query, k), s.partial, nil
}

func TestRetrieverRoutesRetrieval(t *testing.T) {
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	e := NewEngine(ix, nil, Config{TopK: 10})
	r := &stubRetriever{ix: ix}
	e.SetRetriever(r)
	ans := e.Ask("what is the capital of italy")
	if ans.Text != "rome" {
		t.Fatalf("answer via retriever: %q", ans.Text)
	}
	if r.calls == 0 {
		t.Fatal("retriever was not consulted")
	}
	if ans.Truncated || ans.PartialRetrieval {
		t.Fatal("full retrieval must not be marked partial")
	}
}

func TestRetrieverPartialMarksAnswer(t *testing.T) {
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	e := NewEngine(ix, nil, Config{TopK: 10})
	e.SetRetriever(&stubRetriever{ix: ix, partial: true})
	ans := e.Ask("what is the capital of italy")
	if !ans.PartialRetrieval || !ans.Truncated {
		t.Fatalf("partial retrieval must mark the answer: %+v", ans)
	}
	if ans.Text != "rome" {
		t.Fatalf("partial retrieval still answers: %q", ans.Text)
	}
}

func TestRetrieverErrorFallsBackToIndex(t *testing.T) {
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	e := NewEngine(ix, nil, Config{TopK: 10})
	r := &stubRetriever{err: errors.New("tier down")}
	e.SetRetriever(r)
	ans := e.Ask("what is the capital of france")
	if ans.Text != "paris" {
		t.Fatalf("fallback answer: %q", ans.Text)
	}
	if r.calls == 0 {
		t.Fatal("retriever should have been tried first")
	}
	// Clearing the retriever restores embedded retrieval.
	e.SetRetriever(nil)
	if got := e.Ask("what is the capital of france").Text; got != "paris" {
		t.Fatalf("after clearing retriever: %q", got)
	}
}

// Ask answers a question under a background context.
func (e *Engine) Ask(question string) Answer {
	return e.AskContext(context.Background(), question)
}

// Total returns the summed component time. The service's own latency is
// its wall time, which the sirius pipeline reads; the sum is a test's
// lower bound on it.
func (t Timings) Total() time.Duration {
	return t.Stemming + t.Regex + t.CRF + t.Retrieval
}

// servedPatterns reads ../nlp/regex/testdata/served.txt: the patterns the served path compiles, by
// the name of their set.
func servedPatterns(t *testing.T) map[string][]string {
	b, err := os.ReadFile("../nlp/regex/testdata/served.txt")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]string{}
	var set string
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "["):
			set = strings.Trim(line, "[]")
		default:
			sets[set] = append(sets[set], line)
		}
	}
	return sets
}

// TestPatternsAreTheServedList checks that the document-filter battery,
// the question patterns with their relations and the answer templates are,
// in order, the list the regex package's corpus differential runs against
// its reference matcher.
func TestPatternsAreTheServedList(t *testing.T) {
	sets := servedPatterns(t)
	e := engine()
	var battery, questions []string
	for _, re := range e.docFilters {
		battery = append(battery, re.String())
	}
	for _, qp := range e.questions {
		// The differential reads the subject from group 1.
		if qp.subjGroup != 1 {
			t.Errorf("%q: subject in group %d", qp.re, qp.subjGroup)
		}
		questions = append(questions, qp.relation+" "+qp.re.String())
	}
	want := map[string][]string{"battery": battery, "question": questions}
	for relation, tpls := range answerTemplates {
		want["template "+relation] = tpls
	}
	for set := range sets {
		if _, ok := want[set]; !ok && set != "command" && set != "action" {
			t.Errorf("served list has set %q, which QA does not compile", set)
		}
	}
	for set, patterns := range want {
		if !slices.Equal(patterns, sets[set]) {
			t.Errorf("[%s]: QA compiles %q, the served list has %q", set, patterns, sets[set])
		}
	}
}
