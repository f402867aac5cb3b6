package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	if len(ix.postings) == 0 {
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
	if !stopwords["the"] || stopwords["capital"] {
		t.Fatal("stopword membership wrong")
	}
}

// refScore, refSearch and refCandidates are the term-at-a-time scorer
// the posting-list walk replaced, kept as its oracle: every term's postings
// added into a docID -> score map, the top k picked by a bounded heap, and
// the candidates popped off the full ranking with each one's term
// frequencies looked up by binary search.
func refScore(ix *Index, terms []string) map[int]float64 {
	scores := map[int]float64{}
	docs := len(ix.docs)
	avgLen := float64(ix.totalLen) / float64(docs)
	for _, term := range terms {
		plist, ok := ix.postings[term]
		if !ok {
			continue
		}
		idf := IDF(len(plist), docs)
		for _, p := range plist {
			scores[p.docID] += idf * TFNorm(float64(p.tf), float64(ix.docLen[p.docID]), avgLen, ix.k1, ix.b)
		}
	}
	return scores
}

func refSearch(ix *Index, scores map[int]float64, k int) []Result {
	if k <= 0 {
		return nil
	}
	top := topKByScore(scores, k)
	results := make([]Result, len(top))
	for i, e := range top {
		results[i] = Result{Doc: ix.docs[e.id], Score: e.score}
	}
	return results
}

// scoredDoc is one (docID, score) pair of the reference ranking.
type scoredDoc struct {
	id    int
	score float64
}

func refWorse(a, b scoredDoc) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// topKByScore selects the k best entries of scores with a bounded
// min-heap rooted at the worst kept entry, best-first.
func topKByScore(scores map[int]float64, k int) []scoredDoc {
	if len(scores) == 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	h := make([]scoredDoc, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && refWorse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && refWorse(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for id, s := range scores {
		e := scoredDoc{id: id, score: s}
		if len(h) < k {
			h = append(h, e)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !refWorse(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if refWorse(h[0], e) {
			h[0] = e
			siftDown(0)
		}
	}
	out := h
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h = h[:n]
		siftDown(0)
	}
	return out
}

// refRanking is every scored document in result order: score
// descending, ID ascending.
func refRanking(scores map[int]float64) []scoredDoc {
	all := make([]scoredDoc, 0, len(scores))
	for id, s := range scores {
		all = append(all, scoredDoc{id: id, score: s})
	}
	sort.Slice(all, func(i, j int) bool { return refWorse(all[j], all[i]) })
	return all
}

func refCandidates(ix *Index, ranking []scoredDoc, terms []string, limit, perTie int) []Candidate {
	if limit <= 0 || limit > len(ranking) {
		limit = len(ranking)
	}
	out := make([]Candidate, 0, limit)
	type group struct {
		first int // index in out
		kept  int
	}
	var groups []group
	var runScore float64
	tf := make([]int, len(terms))
	for _, e := range ranking {
		if len(out) == limit {
			break
		}
		length := ix.docLen[e.id]
		for ti, t := range terms {
			tf[ti] = refTermFreq(ix, t, e.id)
		}
		if e.score != runScore {
			runScore, groups = e.score, groups[:0]
		}
		g := slices.IndexFunc(groups, func(g group) bool {
			return out[g.first].Len == length && slices.Equal(out[g.first].TF, tf)
		})
		switch {
		case g < 0:
			groups = append(groups, group{first: len(out), kept: 1})
		case perTie > 0 && groups[g].kept >= perTie:
			continue
		default:
			groups[g].kept++
		}
		out = append(out, Candidate{Doc: ix.docs[e.id], Len: length, TF: slices.Clone(tf)})
	}
	return out
}

func refTermFreq(ix *Index, term string, id int) int {
	plist := ix.postings[term]
	i := sort.Search(len(plist), func(i int) bool { return plist[i].docID >= id })
	if i < len(plist) && plist[i].docID == id {
		return plist[i].tf
	}
	return 0
}

// zipfIndex indexes docs documents whose body terms are drawn head-heavy
// from a small vocabulary, as in the synthetic web corpus. Three in four
// documents have one body length, so a query's matches fall into large
// groups of look-alikes; the rest vary in length, and some carry a term in
// the title.
func zipfIndex(docs int, rng *rand.Rand) *Index {
	ix := NewIndex()
	for d := 0; d < docs; d++ {
		words := 12
		if d%4 == 0 {
			words = 4 + rng.Intn(20)
		}
		var sb strings.Builder
		for w := 0; w < words; w++ {
			fmt.Fprintf(&sb, "t%d ", zipfTerm(rng))
		}
		title := fmt.Sprintf("doc %d", d)
		if d%7 == 0 {
			title += fmt.Sprintf(" t%d", zipfTerm(rng))
		}
		ix.Add(title, sb.String())
	}
	return ix
}

func zipfTerm(rng *rand.Rand) int {
	r := rng.Float64()
	return int(r * r * r * 300)
}

// TestTopKHeapMatchesFullSort checks both bounded heaps against a full
// sort, score descending and ID ascending, where exact ties are common:
// the reference's topKByScore on coarsely quantized scores, and the
// walk's heap behind Search on an index of many look-alike documents.
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
		want := refRanking(scores)
		want = want[:min(k, len(want))]
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: pos %d: heap %+v, sort %+v", trial, k, i, got[i], want[i])
			}
		}
	}
	ix := zipfIndex(500, rng)
	for trial := 0; trial < 200; trial++ {
		query := fmt.Sprintf("t%d t%d", zipfTerm(rng), zipfTerm(rng))
		k := 1 + rng.Intn(40)
		got := ix.Search(query, k)
		want := refRanking(refScore(ix, QueryTerms(query)))
		want = want[:min(k, len(want))]
		if len(got) != len(want) {
			t.Fatalf("%q k=%d: len %d != %d", query, k, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc.ID != want[i].id || got[i].Score != want[i].score {
				t.Fatalf("%q k=%d: pos %d: heap {%d %v}, sort %+v", query, k, i, got[i].Doc.ID, got[i].Score, want[i])
			}
		}
	}
}

// TestSearchGlobalWithOwnStatsMatchesLocal rescores an index's candidates
// under its own Stats the way the aggregator does under merged ones: each
// term's IDF * TFNorm added in query order, ranked by score then ID. With
// one shard that is the local ranking, so it must equal Search bit for bit.
func TestSearchGlobalWithOwnStatsMatchesLocal(t *testing.T) {
	ix := buildIndex()
	queries := []string{"capital Italy", "cats", "capital", "rome ancient ruins"}
	for _, q := range queries {
		terms := QueryTerms(q)
		df, docs, totalLen := ix.Stats(terms)
		avgLen := float64(totalLen) / float64(docs)
		var global []Result
		for _, c := range ix.Candidates(terms, 0, 0) {
			s := 0.0
			for i := range terms {
				if c.TF[i] > 0 {
					s += IDF(df[i], docs) * TFNorm(float64(c.TF[i]), float64(c.Len), avgLen, BM25K1, BM25B)
				}
			}
			global = append(global, Result{Doc: c.Doc, Score: s})
		}
		sort.Slice(global, func(i, j int) bool {
			if global[i].Score != global[j].Score {
				return global[i].Score > global[j].Score
			}
			return global[i].Doc.ID < global[j].Doc.ID
		})
		global = global[:min(10, len(global))]
		local := ix.Search(q, 10)
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

// TestWalkMatchesReference holds Search and Candidates to the
// term-at-a-time reference bit for bit: the same documents in the same
// order with the same scores, term frequencies and lengths. Queries
// repeat terms, name terms no document holds, or hold only stopwords;
// Candidates runs unbounded, capped and at the leaf's request shapes.
func TestWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := zipfIndex(2000, rng)
	shapes := []struct{ limit, perTie int }{
		{0, 0}, {-1, 0}, {0, 2}, {5, 1}, {10, 0}, {40, 10}, {160, 40},
	}
	for qi := 0; qi < 2000; qi++ {
		var words []string
		for n := 1 + rng.Intn(4); len(words) < n; {
			switch r := rng.Intn(10); {
			case r == 0 && len(words) > 0:
				words = append(words, words[rng.Intn(len(words))])
			case r == 1:
				words = append(words, fmt.Sprintf("absent%d", qi))
			case r == 2:
				words = append(words, "the")
			default:
				words = append(words, fmt.Sprintf("t%d", zipfTerm(rng)))
			}
		}
		query := strings.Join(words, " ")
		terms := QueryTerms(query)
		scores := refScore(ix, terms)
		ranking := refRanking(scores)
		for _, k := range []int{0, 1, 10, 100} {
			got, want := ix.Search(query, k), refSearch(ix, scores, k)
			if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, func(a, b Result) bool {
				return a.Doc == b.Doc && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("Search(%q, %d):\n got %v\nwant %v", query, k, got, want)
			}
		}
		for _, s := range shapes {
			got := ix.Candidates(terms, s.limit, s.perTie)
			want := refCandidates(ix, ranking, terms, s.limit, s.perTie)
			if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, func(a, b Candidate) bool {
				return a.Doc == b.Doc && a.Len == b.Len && slices.Equal(a.TF, b.TF)
			}) {
				t.Fatalf("Candidates(%q, %d, %d): %d candidates, reference %d", terms, s.limit, s.perTie, len(got), len(want))
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
	// The walk's allocations are per query term or per kept hit (cursors,
	// the bounded heap, its tf table, the results slice) plus tokenizer
	// scratch, never per matching document. Guard against a regression to
	// per-match allocation.
	if allocs > 12 {
		t.Fatalf("Search allocations too high: %.1f", allocs)
	}
}
