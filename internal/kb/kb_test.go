package kb

import (
	"strings"
	"testing"
)

func TestInputSetCountsMatchTable1(t *testing.T) {
	if len(VoiceCommands) != 16 {
		t.Errorf("VC count = %d, want 16", len(VoiceCommands))
	}
	if len(VoiceQueries) != 16 {
		t.Errorf("VQ count = %d, want 16", len(VoiceQueries))
	}
	if len(VoiceImageQueries) != 10 {
		t.Errorf("VIQ count = %d, want 10", len(VoiceImageQueries))
	}
	if len(AllQueries()) != 42 {
		t.Errorf("total = %d, want 42", len(AllQueries()))
	}
}

func TestQueryIDsUniqueAndClassed(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range AllQueries() {
		if seen[q.ID] {
			t.Fatalf("duplicate query id %q", q.ID)
		}
		seen[q.ID] = true
		if q.Text == "" || q.Want == "" {
			t.Fatalf("query %q incomplete", q.ID)
		}
		if q.Class == VoiceImageQuery && q.ImageID == "" {
			t.Fatalf("VIQ %q missing image", q.ID)
		}
		if q.Class != VoiceImageQuery && q.ImageID != "" {
			t.Fatalf("non-VIQ %q has image", q.ID)
		}
	}
}

func TestQueryClassString(t *testing.T) {
	if VoiceCommand.String() != "VC" || VoiceQuery.String() != "VQ" || VoiceImageQuery.String() != "VIQ" {
		t.Fatal("class names")
	}
}

func TestEveryAnswerBackedByFact(t *testing.T) {
	for _, q := range append(append([]Query{}, VoiceQueries...), VoiceImageQueries...) {
		found := false
		for _, f := range facts {
			if f.Object == q.Want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %q answer %q has no supporting fact", q.ID, q.Want)
		}
	}
}

func TestEveryRelationHasPhrases(t *testing.T) {
	for _, f := range facts {
		if len(relationPhrases[f.Relation]) == 0 {
			t.Errorf("relation %q has no phrases", f.Relation)
		}
	}
}

func TestBuildCorpusRetrievable(t *testing.T) {
	ix := BuildCorpus(DefaultCorpusConfig())
	if ix.Len() != corpusDocCount(DefaultCorpusConfig()) {
		t.Fatalf("corpus has %d docs, want %d", ix.Len(), corpusDocCount(DefaultCorpusConfig()))
	}
	// Every VQ answer must appear in a top-5 retrieved document.
	for _, q := range VoiceQueries {
		res := ix.Search(q.Text, 5)
		if len(res) == 0 {
			t.Errorf("query %q retrieved nothing", q.ID)
			continue
		}
		found := false
		for _, r := range res {
			if strings.Contains(r.Doc.Body, q.Want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %q: answer %q not in top-5 docs", q.ID, q.Want)
		}
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	a := BuildCorpus(DefaultCorpusConfig())
	b := BuildCorpus(DefaultCorpusConfig())
	if a.Len() != b.Len() {
		t.Fatal("corpus size must be deterministic")
	}
	if a.Doc(0).Body != b.Doc(0).Body {
		t.Fatal("corpus content must be deterministic")
	}
}

func TestImageEntities(t *testing.T) {
	ents := ImageEntities()
	if len(ents) < 5 {
		t.Fatalf("too few image entities: %v", ents)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		if seen[e] {
			t.Fatalf("duplicate entity %q", e)
		}
		seen[e] = true
	}
}

func TestBuildLexiconCoversQueries(t *testing.T) {
	lex, _ := BuildLexicon()
	for _, q := range AllQueries() {
		for _, w := range strings.Fields(q.Text) {
			if _, err := lex.Pron(w); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := lex.Pron("<sil>"); err != nil {
		t.Error("lexicon must include silence")
	}
}

// corpusDocCount returns the number of documents BuildCorpus will index.
func corpusDocCount(cfg CorpusConfig) int {
	n := cfg.DistractorDocs
	for fi := range facts {
		n += paraphraseCount(fi)
	}
	return n
}
