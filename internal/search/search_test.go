package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Who was elected 44th President, in 2008?")
	want := []string{"who", "was", "elected", "44th", "president", "in", "2008"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v", got)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text must tokenize to nothing")
	}
}

func buildIndex() *Index {
	ix := NewIndex()
	ix.Add("Paris", "Paris is the capital of France and its largest city.")
	ix.Add("Rome", "Rome is the capital of Italy. Rome has ancient ruins.")
	ix.Add("Berlin", "Berlin is the capital of Germany.")
	ix.Add("Cats", "Cats are small domestic animals. Cats purr.")
	return ix
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	ix := buildIndex()
	res := ix.Search("capital Italy", 10)
	if len(res) == 0 || res[0].Doc.Title != "Rome" {
		t.Fatalf("results: %+v", res)
	}
	// Scores descending.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("scores not sorted")
		}
	}
}

func TestSearchTermFrequencyMatters(t *testing.T) {
	ix := buildIndex()
	res := ix.Search("cats", 5)
	if len(res) != 1 || res[0].Doc.Title != "Cats" {
		t.Fatalf("results: %+v", res)
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildIndex()
	res := ix.Search("capital", 2)
	if len(res) != 2 {
		t.Fatalf("topK: %d", len(res))
	}
	if got := ix.Search("capital", 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	if got := ix.Search("zzzznothing", 5); len(got) != 0 {
		t.Fatal("no hits expected")
	}
}

func TestStopwordsIgnored(t *testing.T) {
	ix := buildIndex()
	if got := ix.Search("the of is", 5); len(got) != 0 {
		t.Fatalf("stopword-only query must return nothing, got %v", got)
	}
}

func TestDocAccessors(t *testing.T) {
	ix := buildIndex()
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Doc(0) == nil || ix.Doc(0).Title != "Paris" {
		t.Fatal("Doc(0)")
	}
	if ix.Doc(-1) != nil || ix.Doc(99) != nil {
		t.Fatal("out-of-range Doc must be nil")
	}
	if ix.TermCount() == 0 {
		t.Fatal("terms must be indexed")
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.Search("anything", 5); got != nil {
		t.Fatal("empty index must return nil")
	}
}

func TestIDFPrefersRareTerms(t *testing.T) {
	ix := NewIndex()
	// "common" appears everywhere; "rare" in one doc.
	for i := 0; i < 20; i++ {
		ix.Add(fmt.Sprintf("doc%d", i), "common words everywhere")
	}
	rareID := ix.Add("target", "common rare")
	res := ix.Search("common rare", 3)
	if len(res) == 0 || res[0].Doc.ID != rareID {
		t.Fatalf("rare-term doc must rank first: %+v", res)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "same words here")
	ix.Add("b", "same words here")
	r1 := ix.Search("same words", 2)
	r2 := ix.Search("same words", 2)
	if r1[0].Doc.ID != r2[0].Doc.ID || r1[0].Doc.ID != 0 {
		t.Fatal("ties must break by doc ID")
	}
}

func TestConcurrentAddSearch(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ix.Add(fmt.Sprintf("t%d-%d", w, i), "concurrent indexing stress test document")
				ix.Search("stress document", 3)
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 200 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestSearchFindsEveryIndexedDocProperty(t *testing.T) {
	// Property: a document is always retrievable by its own unique term.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			ix.Add(fmt.Sprintf("d%d", i), fmt.Sprintf("unique%dterm filler body text", i))
		}
		probe := rng.Intn(n)
		res := ix.Search(fmt.Sprintf("unique%dterm", probe), 1)
		return len(res) == 1 && res[0].Doc.ID == probe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := NewIndex()
	rng := rand.New(rand.NewSource(1))
	words := []string{"capital", "city", "river", "president", "mountain", "country", "famous", "ancient", "large", "border"}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for j := 0; j < 50; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		ix.Add(fmt.Sprintf("doc%d", i), sb.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("capital city president", 10)
	}
}

func TestTitleBoost(t *testing.T) {
	ix := NewIndex()
	inTitle := ix.Add("rome capital", "filler words here nothing else relevant")
	inBody := ix.Add("misc", "rome capital filler words here nothing else")
	res := ix.Search("rome capital", 2)
	if len(res) != 2 {
		t.Fatalf("results: %d", len(res))
	}
	if res[0].Doc.ID != inTitle {
		t.Fatalf("title match must outrank body match: got doc %d", res[0].Doc.ID)
	}
	_ = inBody
}

func TestQueryTerms(t *testing.T) {
	got := QueryTerms("What is the capital of Italy?")
	want := []string{"what", "capital", "italy"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v", got)
	}
	if !Stopword("the") || Stopword("capital") {
		t.Fatal("Stopword membership wrong")
	}
}

// referenceTopK is the pre-heap implementation: sort every entry, truncate.
func referenceTopK(scores map[int]float64, k int) []scoredDoc {
	all := make([]scoredDoc, 0, len(scores))
	for id, s := range scores {
		all = append(all, scoredDoc{id: id, score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func TestTopKHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		scores := make(map[int]float64, n)
		for i := 0; i < n; i++ {
			// Coarse quantization to force plenty of exact ties.
			scores[i] = float64(rng.Intn(8)) / 4
		}
		k := 1 + rng.Intn(12)
		got := topKByScore(scores, k)
		want := referenceTopK(scores, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: pos %d: heap %+v, sort %+v", trial, k, i, got[i], want[i])
			}
		}
	}
}

func TestSearchGlobalWithOwnStatsMatchesLocal(t *testing.T) {
	ix := buildIndex()
	queries := []string{"capital Italy", "cats", "capital", "rome ancient ruins"}
	for _, q := range queries {
		terms := QueryTerms(q)
		df, docs, totalLen := ix.Stats(terms)
		gs := &GlobalStats{Docs: docs, TotalLen: totalLen, DocFreq: map[string]int{}}
		for i, term := range terms {
			gs.DocFreq[term] = df[i]
		}
		local := ix.Search(q, 10)
		global := ix.SearchGlobal(q, 10, gs)
		if len(local) != len(global) {
			t.Fatalf("%q: %d vs %d results", q, len(local), len(global))
		}
		for i := range local {
			if local[i].Doc.ID != global[i].Doc.ID || local[i].Score != global[i].Score {
				t.Fatalf("%q pos %d: local %+v global %+v", q, i, local[i], global[i])
			}
		}
	}
}

func TestAddGlobalPreservesGlobalIDs(t *testing.T) {
	ix := NewIndex()
	if id := ix.AddGlobal(7, "seven", "body text"); id != 0 {
		t.Fatalf("local id = %d", id)
	}
	if id := ix.AddGlobal(11, "eleven", "body text"); id != 1 {
		t.Fatalf("local id = %d", id)
	}
	if ix.Doc(0).GlobalID != 7 || ix.Doc(1).GlobalID != 11 {
		t.Fatal("GlobalID not preserved")
	}
	// Plain Add keeps GlobalID == ID.
	plain := NewIndex()
	id := plain.Add("t", "b")
	if plain.Doc(id).GlobalID != id {
		t.Fatal("Add must set GlobalID == ID")
	}
}

func TestCandidatesCarryTermFrequencies(t *testing.T) {
	ix := NewIndex()
	ix.Add("rome", "rome rome italy") // tf(rome)=2*boost? title adds 2, body adds 2 => 4
	ix.Add("paris", "paris france capital")
	terms := []string{"rome", "italy", "missing"}
	cands := ix.Candidates(terms, 0, 0)
	if len(cands) != 1 {
		t.Fatalf("candidates: %+v", cands)
	}
	c := cands[0]
	if c.Doc.Title != "rome" {
		t.Fatalf("wrong doc: %+v", c.Doc)
	}
	// title "rome" boosted x2 + two body occurrences = 4.
	if c.TF[0] != 4 || c.TF[1] != 1 || c.TF[2] != 0 {
		t.Fatalf("tf vector: %v", c.TF)
	}
	if c.Len != 4+1 {
		t.Fatalf("doc len: %d", c.Len)
	}
	// Limit bounds output and keeps local-BM25 order.
	for i := 0; i < 10; i++ {
		ix.Add(fmt.Sprintf("d%d", i), "rome mention")
	}
	lim := ix.Candidates([]string{"rome"}, 3, 0)
	if len(lim) != 3 {
		t.Fatalf("limit: %d", len(lim))
	}
	// The ten mentions are look-alikes (one length, one tf): past the
	// first two by ID they are passed over, and the list goes on to what
	// ranks below them.
	ix.Add("long", "rome mention and more words besides")
	capped := ix.Candidates([]string{"rome"}, 0, 2)
	var titles []string
	for _, c := range capped {
		titles = append(titles, c.Doc.Title)
	}
	if want := []string{"rome", "d0", "d1", "long"}; !reflect.DeepEqual(titles, want) {
		t.Fatalf("capped candidates: %v, want %v", titles, want)
	}
}

func TestSearchAllocsBounded(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		ix.Add(fmt.Sprintf("doc%d", i), "capital city river president mountain")
	}
	// Warm the pool.
	ix.Search("capital city", 10)
	allocs := testing.AllocsPerRun(50, func() {
		ix.Search("capital city", 10)
	})
	// Pooled scores map: remaining allocs are the heap slice, the results
	// slice, and tokenizer scratch — far below the former O(corpus) sort
	// slice. Guard against regression to per-query map growth.
	if allocs > 12 {
		t.Fatalf("Search allocations too high: %.1f", allocs)
	}
}
