package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
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

// build indexes docs, each a title and a body, each document's global ID
// its ID.
func build(docs ...[2]string) *Index {
	var b Builder
	for i, d := range docs {
		b.Add(i, d[0], d[1])
	}
	return b.Build()
}

func buildIndex() *Index {
	return build(
		[2]string{"Paris", "Paris is the capital of France and its largest city."},
		[2]string{"Rome", "Rome is the capital of Italy. Rome has ancient ruins."},
		[2]string{"Berlin", "Berlin is the capital of Germany."},
		[2]string{"Cats", "Cats are small domestic animals. Cats purr."},
	)
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
	if ix.terms() == 0 {
		t.Fatal("terms must be indexed")
	}
}

func TestEmptyIndex(t *testing.T) {
	for _, ix := range []*Index{new(Builder).Build(), {}} {
		if got := ix.Search("anything", 5); got != nil {
			t.Fatal("empty index must return nil")
		}
	}
}

func TestIDFPrefersRareTerms(t *testing.T) {
	var b Builder
	// "common" appears everywhere; "rare" in one doc.
	for i := 0; i < 20; i++ {
		b.Add(i, fmt.Sprintf("doc%d", i), "common words everywhere")
	}
	rareID := b.Add(20, "target", "common rare")
	res := b.Build().Search("common rare", 3)
	if len(res) == 0 || res[0].Doc.ID != rareID {
		t.Fatalf("rare-term doc must rank first: %+v", res)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := build([2]string{"a", "same words here"}, [2]string{"b", "same words here"})
	r1 := ix.Search("same words", 2)
	r2 := ix.Search("same words", 2)
	if r1[0].Doc.ID != r2[0].Doc.ID || r1[0].Doc.ID != 0 {
		t.Fatal("ties must break by doc ID")
	}
}

// TestConcurrentReads runs every read of one built index from many
// goroutines at once, and each must give what it gave alone: an index is
// never written after Build, so reads share it without a lock, and the race
// detector sees any write a read makes.
func TestConcurrentReads(t *testing.T) {
	ix, _ := zipfIndex(t, 300, rand.New(rand.NewSource(5)))
	type answer struct {
		search     []Result
		df         []int
		docs, len  int
		candidates []Candidate
		doc        *Document
	}
	read := func(q int) answer {
		query := fmt.Sprintf("t%d t%d doc", q%40, q%7)
		terms := QueryTerms(query)
		var a answer
		a.search = ix.Search(query, 10)
		a.df, a.docs, a.len = ix.Stats(terms)
		a.candidates = ix.Candidates(terms, 40, 10)
		a.doc = ix.Doc(q % ix.Len())
		return a
	}
	const queries = 64
	want := make([]answer, queries)
	for q := range want {
		want[q] = read(q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*queries)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				q := (i + 8*w) % queries
				if got := read(q); !reflect.DeepEqual(got, want[q]) {
					errs <- fmt.Sprintf("goroutine %d, query %d: %+v, alone %+v", w, q, got, want[q])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSearchFindsEveryIndexedDocProperty(t *testing.T) {
	// Property: a document is always retrievable by its own unique term.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Builder
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			b.Add(i, fmt.Sprintf("d%d", i), fmt.Sprintf("unique%dterm filler body text", i))
		}
		ix := b.Build()
		probe := rng.Intn(n)
		res := ix.Search(fmt.Sprintf("unique%dterm", probe), 1)
		return len(res) == 1 && res[0].Doc.ID == probe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	var bld Builder
	rng := rand.New(rand.NewSource(1))
	words := []string{"capital", "city", "river", "president", "mountain", "country", "famous", "ancient", "large", "border"}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for j := 0; j < 50; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		bld.Add(i, fmt.Sprintf("doc%d", i), sb.String())
	}
	ix := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("capital city president", 10)
	}
}

func TestTitleBoost(t *testing.T) {
	var b Builder
	inTitle := b.Add(0, "rome capital", "filler words here nothing else relevant")
	inBody := b.Add(1, "misc", "rome capital filler words here nothing else")
	res := b.Build().Search("rome capital", 2)
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

// refIndex is the map-of-postings index the flat layout replaced, kept as
// its oracle: a map from each term to a slice of 16-byte postings, a
// *Document and an int length per document, all appended to in place.
type refIndex struct {
	docs     []*Document
	postings map[string][]posting
	docLen   []int
	totalLen int
	k1, b    float64
	// titleBoost weights title occurrences (BM25F-style field boost):
	// a term in the title counts as titleBoost body occurrences.
	titleBoost int
}

type posting struct {
	docID int
	tf    int
}

func newRefIndex() *refIndex {
	return &refIndex{
		postings:   map[string][]posting{},
		k1:         1.2,
		b:          0.75,
		titleBoost: 2,
	}
}

func (ix *refIndex) add(globalID int, title, body string) int {
	id := len(ix.docs)
	doc := &Document{ID: id, GlobalID: globalID, Title: title, Body: body}
	ix.docs = append(ix.docs, doc)
	counts := map[string]int{}
	for _, t := range Tokenize(title) {
		if stopwords[t] {
			continue
		}
		counts[t] += ix.titleBoost
	}
	for _, t := range Tokenize(body) {
		if stopwords[t] {
			continue
		}
		counts[t]++
	}
	n := 0
	for t, c := range counts {
		ix.postings[t] = append(ix.postings[t], posting{docID: id, tf: c})
		n += c
	}
	ix.docLen = append(ix.docLen, n)
	ix.totalLen += n
	return id
}

// adopt checks that the flat index holds the reference's documents, ID,
// global ID, title and body, and nothing past them, then points the
// reference at the flat index's own documents, so that the results of the
// two compare by pointer.
func (ix *refIndex) adopt(t *testing.T, flat *Index) {
	t.Helper()
	if flat.Len() != len(ix.docs) {
		t.Fatalf("Len = %d, reference %d", flat.Len(), len(ix.docs))
	}
	for id, want := range ix.docs {
		got := flat.Doc(id)
		if got == nil || *got != *want {
			t.Fatalf("Doc(%d) = %+v, reference %+v", id, got, *want)
		}
		ix.docs[id] = got
	}
	if flat.Doc(-1) != nil || flat.Doc(len(ix.docs)) != nil {
		t.Fatal("out-of-range Doc must be nil")
	}
}

// refScore, refSearch and refCandidates are the term-at-a-time scorer
// the posting-list walk replaced, kept as its oracle: every term's postings
// added into a docID -> score map, the top k picked by a bounded heap, and
// the candidates popped off the full ranking with each one's term
// frequencies looked up by binary search.
func refScore(ix *refIndex, terms []string) map[int]float64 {
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

func refSearch(ix *refIndex, scores map[int]float64, k int) []Result {
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

func refCandidates(ix *refIndex, ranking []scoredDoc, terms []string, limit, perTie int) []Candidate {
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

func refTermFreq(ix *refIndex, term string, id int) int {
	plist := ix.postings[term]
	i := sort.Search(len(plist), func(i int) bool { return plist[i].docID >= id })
	if i < len(plist) && plist[i].docID == id {
		return plist[i].tf
	}
	return 0
}

// zipfIndex indexes docs zipfDoc documents in the flat index and in the
// reference, and has the reference adopt the flat index's documents.
func zipfIndex(t *testing.T, docs int, rng *rand.Rand) (*Index, *refIndex) {
	var b Builder
	ref := newRefIndex()
	for d := 0; d < docs; d++ {
		title, body := zipfDoc(d, rng)
		ref.add(b.Add(d, title, body), title, body)
	}
	ix := b.Build()
	ref.adopt(t, ix)
	return ix, ref
}

// zipfDoc is document d of a corpus whose body terms are drawn head-heavy
// from a small vocabulary, as in the synthetic web corpus. Three in four
// documents have one body length, so a query's matches fall into large
// groups of look-alikes; the rest vary in length, and some carry a term in
// the title.
func zipfDoc(d int, rng *rand.Rand) (title, body string) {
	words := 12
	if d%4 == 0 {
		words = 4 + rng.Intn(20)
	}
	var sb strings.Builder
	for w := 0; w < words; w++ {
		fmt.Fprintf(&sb, "t%d ", zipfTerm(rng))
	}
	title = fmt.Sprintf("doc %d", d)
	if d%7 == 0 {
		title += fmt.Sprintf(" t%d", zipfTerm(rng))
	}
	return title, sb.String()
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
	ix, ref := zipfIndex(t, 500, rng)
	for trial := 0; trial < 200; trial++ {
		query := fmt.Sprintf("t%d t%d", zipfTerm(rng), zipfTerm(rng))
		k := 1 + rng.Intn(40)
		got := ix.Search(query, k)
		want := refRanking(refScore(ref, QueryTerms(query)))
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
	ix, ref := zipfIndex(t, 2000, rng)
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
		scores := refScore(ref, terms)
		ranking := refRanking(scores)
		for _, k := range []int{0, 1, 10, 100} {
			got, want := ix.Search(query, k), refSearch(ref, scores, k)
			if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, func(a, b Result) bool {
				return a.Doc == b.Doc && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("Search(%q, %d):\n got %v\nwant %v", query, k, got, want)
			}
		}
		for _, s := range shapes {
			got := ix.Candidates(terms, s.limit, s.perTie)
			want := refCandidates(ref, ranking, terms, s.limit, s.perTie)
			if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, func(a, b Candidate) bool {
				return a.Doc == b.Doc && a.Len == b.Len && slices.Equal(a.TF, b.TF)
			}) {
				t.Fatalf("Candidates(%q, %d, %d): %d candidates, reference %d", terms, s.limit, s.perTie, len(got), len(want))
			}
		}
	}
}

// TestFlatIndexMatchesReference feeds one document stream to the
// map-of-postings reference and, at each of a run of stop sizes, builds a
// fresh flat index of the stream so far, so that the sizes from one
// document up see terms in one document and in many. At each size Len,
// Doc, Stats, Search and Candidates, with and without the look-alike cap,
// must agree with the reference bit for bit. Every third document is
// added with a global ID of its own.
func TestFlatIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := newRefIndex()
	shapes := []struct{ limit, perTie int }{{0, 0}, {10, 0}, {0, 2}, {40, 10}}
	d := 0
	var stream []Document
	for _, stop := range []int{1, 2, 3, 8, 30, 31, 200, 201, 900, 1500} {
		for ; d < stop; d++ {
			title, body := zipfDoc(d, rng)
			global := d
			if d%3 == 0 {
				global = 5*d + 3
			}
			ref.add(global, title, body)
			stream = append(stream, Document{GlobalID: global, Title: title, Body: body})
		}
		var b Builder
		for _, doc := range stream {
			b.Add(doc.GlobalID, doc.Title, doc.Body)
		}
		ix := b.Build()
		ref.adopt(t, ix)
		for q := 0; q < 60; q++ {
			var words []string
			for n := 1 + rng.Intn(4); len(words) < n; {
				switch r := rng.Intn(10); {
				case r == 0:
					words = append(words, "doc")
				case r == 1:
					words = append(words, fmt.Sprint(rng.Intn(d+1)))
				case r == 2:
					words = append(words, fmt.Sprintf("absent%d", q))
				case r == 3:
					words = append(words, "the")
				default:
					words = append(words, fmt.Sprintf("t%d", zipfTerm(rng)))
				}
			}
			query := strings.Join(words, " ")
			terms := QueryTerms(query)
			df, docs, totalLen := ix.Stats(terms)
			wantDF := make([]int, len(terms))
			for i, term := range terms {
				wantDF[i] = len(ref.postings[term])
			}
			if !slices.Equal(df, wantDF) || docs != len(ref.docs) || totalLen != ref.totalLen {
				t.Fatalf("%d docs: Stats(%q) = %v %d %d, reference %v %d %d", d, terms, df, docs, totalLen, wantDF, len(ref.docs), ref.totalLen)
			}
			scores := refScore(ref, terms)
			ranking := refRanking(scores)
			for _, k := range []int{1, 10, 100} {
				got, want := ix.Search(query, k), refSearch(ref, scores, k)
				if !slices.EqualFunc(got, want, func(a, b Result) bool {
					return a.Doc == b.Doc && math.Float64bits(a.Score) == math.Float64bits(b.Score)
				}) {
					t.Fatalf("%d docs: Search(%q, %d):\n got %v\nwant %v", d, query, k, got, want)
				}
			}
			for _, s := range shapes {
				got := ix.Candidates(terms, s.limit, s.perTie)
				want := refCandidates(ref, ranking, terms, s.limit, s.perTie)
				if !slices.EqualFunc(got, want, func(a, b Candidate) bool {
					return a.Doc == b.Doc && a.Len == b.Len && slices.Equal(a.TF, b.TF)
				}) {
					t.Fatalf("%d docs: Candidates(%q, %d, %d): %d candidates, reference %d", d, terms, s.limit, s.perTie, len(got), len(want))
				}
			}
		}
	}
}

// TestIndexFootprint holds a built index to the size of its layout, read
// from the arrays' lengths and capacities and the strings' lengths, not
// from the heap, so it cannot flake: 6 bytes per posting, its text and its
// terms once each, a Document and a length per document and two offsets
// per term, and no array more than 1 % longer than what it holds. A slab
// or a doubling slack would cost the QA corpus, 600 documents like these,
// more than the set-up heap of a query workload moves by.
func TestIndexFootprint(t *testing.T) {
	ix, ref := zipfIndex(t, 600, rand.New(rand.NewSource(3)))
	f := ix

	// The titles and bodies must tile one string end to end.
	text, lo, hi := 0, uintptr(math.MaxUint), uintptr(0)
	for _, d := range f.docs {
		for _, s := range []string{d.Title, d.Body} {
			if s != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				lo, hi = min(lo, p), max(hi, p+uintptr(len(s)))
				text += len(s)
			}
		}
	}
	if int(hi-lo) != text {
		t.Fatalf("the text spans %d bytes and holds %d: it is not one string", hi-lo, text)
	}
	keys, postings := 0, 0
	for term, plist := range ref.postings {
		keys += len(term)
		postings += len(plist)
	}
	if len(f.keys) != keys || f.terms() != len(ref.postings) || len(f.ids) != postings {
		t.Fatalf("%d key bytes, %d terms, %d postings; the reference has %d, %d, %d", len(f.keys), f.terms(), len(f.ids), keys, len(ref.postings), postings)
	}

	docSize := int(unsafe.Sizeof(Document{}))
	held := text + len(f.keys)
	for _, a := range []struct {
		name           string
		len, cap, size int
	}{
		{"docs", len(f.docs), cap(f.docs), docSize},
		{"docLen", len(f.docLen), cap(f.docLen), 4},
		{"keyOff", len(f.keyOff), cap(f.keyOff), 4},
		{"postOff", len(f.postOff), cap(f.postOff), 4},
		{"ids", len(f.ids), cap(f.ids), 4},
		{"tfs", len(f.tfs), cap(f.tfs), 2},
	} {
		if a.cap-a.len > a.len/100 {
			t.Errorf("%s: capacity %d for %d elements, more than 1 %% slack", a.name, a.cap, a.len)
		}
		held += a.cap * a.size
	}
	docs, terms := len(f.docs), f.terms()
	if bound := 6*postings + text + keys + (docSize+4)*docs + 8*(terms+1); held > bound {
		t.Fatalf("the index holds %d bytes, above its layout's %d (%d postings, %d text bytes, %d documents, %d terms)", held, bound, postings, text, docs, terms)
	}
	t.Logf("%d bytes: %d postings, %d text bytes, %d documents, %d terms", held, postings, text, docs, terms)
}

// TestAddPanicsOnTFOverflow: a posting's term frequency is a uint16, so a
// document holding a term 65 536 times, in its body or through the title
// boost, is refused with a panic rather than indexed with a wrapped count,
// and the refusal leaves the builder as it was.
func TestAddPanicsOnTFOverflow(t *testing.T) {
	var b Builder
	b.Add(0, "", strings.Repeat("w ", math.MaxUint16))
	for _, doc := range []struct{ title, body string }{
		{"", strings.Repeat("w ", math.MaxUint16+1)},
		{strings.Repeat("w ", (math.MaxUint16+1)/titleBoost), ""},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a tf of %d was accepted", math.MaxUint16+1)
				}
			}()
			b.Add(1, doc.title, doc.body)
		}()
	}
	ix := b.Build()
	c := ix.Candidates([]string{"w"}, 0, 0)
	if ix.Len() != 1 || len(c) != 1 || c[0].TF[0] != math.MaxUint16 || c[0].Len != math.MaxUint16 {
		t.Fatalf("after the refused adds: %d documents, candidates %+v", ix.Len(), c)
	}
}

// TestAddRefusalFilesNoTerm: a refused document's new terms leave the
// dictionary with it, so the index built after is the one built without
// it.
func TestAddRefusalFilesNoTerm(t *testing.T) {
	var b Builder
	b.Add(0, "", "w v")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("a tf of %d was accepted", math.MaxUint16+1)
			}
		}()
		b.Add(1, "fresh", "v "+strings.Repeat("x ", math.MaxUint16+1))
	}()
	b.Add(1, "", "v x")
	ix := b.Build()
	if ix.keys != "vwx" || !slices.Equal(ix.tfs, []uint16{1, 1, 1, 1}) || ix.totalLen != 4 {
		t.Fatalf("after a refused add: keys %q, tfs %v, total length %d", ix.keys, ix.tfs, ix.totalLen)
	}
}

func TestAddPreservesGlobalIDs(t *testing.T) {
	var b Builder
	if id := b.Add(7, "seven", "body text"); id != 0 {
		t.Fatalf("local id = %d", id)
	}
	if id := b.Add(11, "eleven", "body text"); id != 1 {
		t.Fatalf("local id = %d", id)
	}
	ix := b.Build()
	if ix.Doc(0).GlobalID != 7 || ix.Doc(1).GlobalID != 11 {
		t.Fatal("GlobalID not preserved")
	}
}

func TestCandidatesCarryTermFrequencies(t *testing.T) {
	docs := [][2]string{
		{"rome", "rome rome italy"}, // tf(rome)=2*boost? title adds 2, body adds 2 => 4
		{"paris", "paris france capital"},
	}
	ix := build(docs...)
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
		docs = append(docs, [2]string{fmt.Sprintf("d%d", i), "rome mention"})
	}
	ix = build(docs...)
	lim := ix.Candidates([]string{"rome"}, 3, 0)
	if len(lim) != 3 {
		t.Fatalf("limit: %d", len(lim))
	}
	// The ten mentions are look-alikes (one length, one tf): past the
	// first two by ID they are passed over, and the list goes on to what
	// ranks below them.
	ix = build(append(docs, [2]string{"long", "rome mention and more words besides"})...)
	capped := ix.Candidates([]string{"rome"}, 0, 2)
	var titles []string
	for _, c := range capped {
		titles = append(titles, c.Doc.Title)
	}
	if want := []string{"rome", "d0", "d1", "long"}; !reflect.DeepEqual(titles, want) {
		t.Fatalf("capped candidates: %v, want %v", titles, want)
	}
}

// TestSearchAllocsBounded pins Search's allocations at their count, six:
// the query's tokens, the walk's cursors, its bounded heap, its tf table
// and its row of scratch, and the results. Each is sized by the query's
// terms or the hits kept, never by the documents matched. The race detector's instrumentation can
// move values to the heap, so this runs only without it.
func TestSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var b Builder
	for i := 0; i < 500; i++ {
		b.Add(i, fmt.Sprintf("doc%d", i), "capital city river president mountain")
	}
	ix := b.Build()
	ix.Search("capital city", 10)
	allocs := testing.AllocsPerRun(50, func() {
		ix.Search("capital city", 10)
	})
	if allocs > 6 {
		t.Fatalf("Search: %.1f allocations, budget 6", allocs)
	}
}

// refQueryTerms is QueryTerms as Tokenize alone computed it before the
// scanner, kept as the scanner's oracle.
func refQueryTerms(query string) []string {
	var terms []string
	for _, t := range Tokenize(query) {
		if !stopwords[t] {
			terms = append(terms, t)
		}
	}
	return terms
}

// FuzzQueryTerms holds the scanner that QueryTerms and Builder share to
// Tokenize on any text: QueryTerms gives the reference's terms, and a
// document of that text as title and body gets the reference index's
// terms, frequencies and length.
func FuzzQueryTerms(f *testing.F) {
	for _, s := range []string{
		"", "what is the capital of italy", "What is the capital of Italy?",
		"term12 term7 the term12", "44th 2008,x", "ÉCOLE école Straße", "x\xffy\xc3",
		"  the an  a ", "under_score-dash", "İstanbul ǅ K",
	} {
		f.Add(s, "paris is the capital of france")
		f.Add("Paris", s)
	}
	f.Fuzz(func(t *testing.T, title, body string) {
		for _, s := range []string{title, body} {
			if got, want := QueryTerms(s), refQueryTerms(s); !slices.Equal(got, want) {
				t.Fatalf("QueryTerms(%q) = %q, reference %q", s, got, want)
			}
		}
		var b Builder
		b.Add(0, title, body)
		ix := b.Build()
		ref := newRefIndex()
		ref.add(0, title, body)
		ref.adopt(t, ix)
		if ix.terms() != len(ref.postings) || ix.totalLen != ref.totalLen {
			t.Fatalf("%q, %q: %d terms of length %d, reference %d of %d", title, body, ix.terms(), ix.totalLen, len(ref.postings), ref.totalLen)
		}
		// One document: term i of the dictionary has one posting, at i.
		for i := 0; i < ix.terms(); i++ {
			plist := ref.postings[ix.key(i)]
			if len(plist) != 1 || int(ix.tfs[i]) != plist[0].tf {
				t.Fatalf("%q, %q: term %q: tf %d, reference postings %v", title, body, ix.key(i), ix.tfs[i], plist)
			}
		}
	})
}

// TestBuilderAddAllocs: a warm Builder adds a lowercase ASCII document
// whose terms it has met without allocating, past its arrays' amortized
// growth: the terms are substrings of the text, and the counts go into
// scratch the Builder keeps.
func TestBuilderAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const title, body = "synth doc 7", "term12 term7 the term12 term300 of term7 term41"
	var b Builder
	for i := 0; i < 1000; i++ {
		b.Add(i, title, body)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() { b.Add(0, title, body) })
	if allocs > 0 {
		t.Fatalf("Add: %v allocations a document, budget 0", allocs)
	}
}
