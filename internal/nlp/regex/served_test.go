package regex_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/nlp/regex"
)

// servedPatterns reads testdata/served.txt: the patterns the served path compiles, by
// the name of their set.
func servedPatterns(t *testing.T) map[string][]string {
	b, err := os.ReadFile("testdata/served.txt")
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

// TestServedPatternsMatchReference is the corpus differential: every
// pattern the served path compiles must give refMatch's match, index and
// captures on the inputs it meets there.
//   - The document-filter battery runs over every sentence of the QA
//     corpus, split as QA splits it.
//   - The question patterns, the command classifier, the deictic pattern
//     and the action patterns run over every query text, as typed and as
//     QA and the action parser normalize it.
//   - The first question pattern that matches a query gives a relation and
//     a subject, and that relation's answer patterns, built as QA builds
//     them, run over every sentence as well. An answer pattern holds its
//     subject as a literal, so on a sentence without the subject the
//     reference finds nothing, and the check there is that the engine
//     finds nothing either; every sentence that holds the subject goes
//     through the reference.
func TestServedPatternsMatchReference(t *testing.T) {
	sets := servedPatterns(t)
	corpus := kb.BuildCorpus(kb.DefaultCorpusConfig())
	var sentences []string
	for i := 0; i < corpus.Len(); i++ {
		for _, s := range strings.Split(corpus.Doc(i).Body, ".") {
			if s = strings.TrimSpace(s); s != "" {
				sentences = append(sentences, s)
			}
		}
	}
	var queries []string
	for _, q := range kb.AllQueries() {
		queries = append(queries, q.Text,
			strings.ToLower(strings.TrimSpace(strings.Trim(q.Text, "?!. "))),
			strings.ToLower(strings.TrimSpace(strings.Trim(q.Text, ".,?! "))))
	}
	slices.Sort(queries)
	queries = slices.Compact(queries)

	check := func(t *testing.T, re *regex.Regexp, texts []string) {
		ref := regex.RefChecker(re)
		for _, s := range texts {
			if err := ref(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("battery", func(t *testing.T) {
		for _, p := range sets["battery"] {
			check(t, regex.MustCompile(p), sentences)
		}
	})
	var questions []*regex.Regexp
	var relations []string
	for _, line := range sets["question"] {
		relation, p, _ := strings.Cut(line, " ")
		questions = append(questions, regex.MustCompile(p))
		relations = append(relations, relation)
	}
	t.Run("queries", func(t *testing.T) {
		for _, re := range questions {
			check(t, re, queries)
		}
		for _, p := range append(sets["command"], sets["action"]...) {
			check(t, regex.MustCompile(p), queries)
		}
	})
	t.Run("answers", func(t *testing.T) {
		asked := 0
		for _, q := range kb.AllQueries() {
			text := strings.ToLower(strings.TrimSpace(strings.Trim(q.Text, "?!. ")))
			for i, relation := range relations {
				m := questions[i].FindStringSubmatch(text)
				if m == nil {
					continue
				}
				asked++
				subject := strings.TrimSpace(m[1])
				for _, tpl := range sets["template "+relation] {
					re := regex.MustCompile(strings.ReplaceAll(tpl, "SUBJ", escape(subject)))
					var holding []string
					for _, s := range sentences {
						if strings.Contains(s, subject) {
							holding = append(holding, s)
						} else if re.MatchString(s) || re.FindStringIndex(s) != nil || re.FindStringSubmatch(s) != nil {
							t.Fatalf("%q matches %q, which does not hold its subject", re, s)
						}
					}
					check(t, re, holding)
				}
				break
			}
		}
		if asked < 20 {
			t.Fatalf("only %d of the queries matched a question pattern", asked)
		}
	})
}

// escape backslashes the metacharacters in s, as QA escapes a subject.
func escape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(`.*+?[]()^$\|`, s[i]) >= 0 {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
