package qa

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/nlp/stemmer"
	"sirius/internal/search"
)

// rewrittenVIQ are the VIQ questions as the pipeline hands them to QA,
// "this <noun>" already replaced by the entity IMM matched, with their
// answers.
var rewrittenVIQ = map[string]string{
	"when does luigis restaurant close": "ten",
	"when does city museum open":        "nine",
	"what is the rating of grand hotel": "four",
	"when does central library close":   "eight",
	"what is the rating of river park":  "three",
}

// generalization are questions on relations the 42-query input set never
// asks about, with their answers.
var generalization = map[string]string{
	"what language is spoken in italy": "italian",
	"what language is spoken in japan": "japanese",
	"what currency does germany use":   "euro",
	"what currency does america use":   "dollar",
}

const goldenPath = "testdata/answers.golden"

// TestAnswersMatchGolden pins every field of QA's output that does not
// depend on the clock, bit for bit, for every question of the input set
// (commands included: QA answers whatever it is asked), the rewritten VIQ
// questions and the generalization set. A change that is meant to leave
// QA's answers alone must leave this file as it is; one that is meant to
// change them regenerates it (delete the file and run the test) and says
// which fields moved. Scores are compared as their float64 bits.
func TestAnswersMatchGolden(t *testing.T) {
	var questions []string
	for _, q := range kb.AllQueries() {
		questions = append(questions, q.Text)
	}
	for _, set := range []map[string]string{rewrittenVIQ, generalization} {
		var qs []string
		for q := range set {
			qs = append(qs, q)
		}
		sort.Strings(qs)
		questions = append(questions, qs...)
	}
	e := engine()
	var b strings.Builder
	for _, q := range questions {
		a := e.Ask(q)
		fmt.Fprintf(&b, "%q\ttext=%q score=%016x runnerup=%q confidence=%016x hits=%d docs=%d\n\tevidence=%q\n",
			q, a.Text, math.Float64bits(a.Score), a.RunnerUp, math.Float64bits(a.Confidence),
			a.FilterHits, a.DocsSeen, a.Evidence)
	}
	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; check it and run the test again", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

// refSentenceStems is the keyword filter's reference, as QA first wrote
// it: a document split on "." into trimmed, non-empty sentences, each
// with the set of its tokens' stems.
func refSentenceStems(body string) (sentences []string, stems []map[string]bool) {
	for _, sentence := range strings.Split(body, ".") {
		sentence = strings.TrimSpace(sentence)
		if sentence == "" {
			continue
		}
		set := map[string]bool{}
		for _, t := range search.Tokenize(sentence) {
			set[stemmer.Stem(t)] = true
		}
		sentences = append(sentences, sentence)
		stems = append(stems, set)
	}
	return sentences, stems
}

// TestOverlapMatchesReference checks docSentences against the reference:
// on every document of the QA corpus, for the keywords of every question
// the golden asks and for a keyword list holding duplicates, the same
// sentences in the same order, each with the reference's overlap
// Σ_k n_k·[k ∈ stems] over the distinct keywords k held n_k times.
func TestOverlapMatchesReference(t *testing.T) {
	e := engine()
	var questions []string
	for _, q := range kb.AllQueries() {
		questions = append(questions, q.Text)
	}
	for _, set := range []map[string]string{rewrittenVIQ, generalization} {
		for q := range set {
			questions = append(questions, q)
		}
	}
	keywordSets := [][]keyword{distinctKeywords([]keyword{{"capit", 1}, {"rome", 1}, {"capit", 1}, {"itali", 1}})}
	for _, q := range questions {
		var tm Timings
		if a := e.analyze(q, &tm); len(a.keywords) > 0 {
			keywordSets = append(keywordSets, a.keywords)
		}
	}
	var sents []sentenceOverlap
	checked := 0
	for i := 0; i < e.index.Len(); i++ {
		body := e.index.Doc(i).Body
		texts, stems := refSentenceStems(body)
		for _, keywords := range keywordSets {
			var tm Timings
			sents = docSentences(body, keywords, make([]bool, len(keywords)), sents, &tm)
			if len(sents) != len(texts) {
				t.Fatalf("doc %d: %d sentences, reference %d", i, len(sents), len(texts))
			}
			for j, s := range sents {
				want := 0
				for _, k := range keywords {
					if stems[j][k.stem] {
						want += k.n
					}
				}
				if s.text != texts[j] || s.overlap != want {
					t.Fatalf("doc %d sentence %d, keywords %q: got (%q, %d), reference (%q, %d)",
						i, j, keywords, s.text, s.overlap, texts[j], want)
				}
				checked++
			}
		}
	}
	t.Logf("%d sentences over %d keyword lists", checked, len(keywordSets))
}

// refDocSentences is docSentences as it was when a question's keywords
// kept their duplicates: every token's stem is compared with every
// keyword, and each keyword a sentence holds counts once per occurrence
// in the question.
func refDocSentences(body string, keywords []string) []sentenceOverlap {
	var out []sentenceOverlap
	seen := make([]bool, len(keywords))
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
	return out
}

// TestDistinctKeywordsKeepOverlap checks that folding a question's
// repeated keyword stems into distinct ones with counts gives every
// sentence the overlap the duplicate-keeping loop gave it: on every
// document of the QA corpus, for every question of the query set and for
// a long question of one repeated word.
func TestDistinctKeywordsKeepOverlap(t *testing.T) {
	e := engine()
	questions := []string{strings.Repeat("italy and ", 100) + "capital of italy"}
	for _, q := range kb.AllQueries() {
		questions = append(questions, q.Text)
	}
	var sents []sentenceOverlap
	for _, q := range questions {
		var tm Timings
		a := e.analyze(q, &tm)
		// The question's stems, duplicates kept, in question order.
		var stems []string
		for _, w := range search.Tokenize(strings.ToLower(strings.TrimSpace(strings.Trim(q, "?!. ")))) {
			if !e.stopwords[w] {
				stems = append(stems, stemmer.Stem(w))
			}
		}
		for i := 0; i < e.index.Len(); i++ {
			body := e.index.Doc(i).Body
			want := refDocSentences(body, stems)
			sents = docSentences(body, a.keywords, make([]bool, len(a.keywords)), sents, &tm)
			if !slices.Equal(sents, want) {
				t.Fatalf("question %.40q, doc %d: overlaps %v, duplicate-keeping loop %v", q, i, sents, want)
			}
		}
	}
}
