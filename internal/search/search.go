// Package search is the web-search substrate of Sirius: an in-memory
// inverted index with BM25 ranking. It plays two roles from the paper:
// the traditional Web Search workload that the Scalability Gap compares
// against (§3, Apache Nutch), and the document-retrieval stage inside the
// OpenEphyra-style question-answering pipeline (§2.3.3).
//
// The index is shard-aware: a corpus can be partitioned across N leaf
// indexes (the paper's leaf/aggregator web-search topology), each
// holding shard-local term frequencies and document lengths, while an
// aggregator merges per-shard document frequencies and corpus sizes into
// the GlobalStats that make distributed BM25 rank byte-identically to a
// single index over the whole corpus. Candidates and Stats are the leaf
// half of that protocol; internal/shard carries the aggregator half.
package search

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Document is one indexed item.
type Document struct {
	ID int
	// GlobalID is the document's corpus-wide identity. For an unsharded
	// index it equals ID; a shard index preserves the full corpus's
	// numbering here so merged rankings tie-break exactly like a single
	// index over the whole corpus.
	GlobalID int
	Title    string
	Body     string
}

// Result is one ranked hit.
type Result struct {
	Doc   *Document
	Score float64
}

// Tokenize lowercases and splits text on non-alphanumeric runes.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// stopwords is the shared English stopword set every index consults.
// Package-level because it never varies per index: N shard indexes in
// one process would otherwise each rebuild an identical map.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "is": true,
	"was": true, "are": true, "to": true, "in": true, "and": true,
	"it": true, "its": true,
}

// Stopword reports whether t is on the shared English stopword list.
func Stopword(t string) bool { return stopwords[t] }

// QueryTerms tokenizes a query and drops stopwords — exactly the term
// sequence Search scores (duplicates preserved, order preserved). The
// sharded tier uses it on both sides of the wire so leaf and aggregator
// agree on term positions.
func QueryTerms(query string) []string {
	toks := Tokenize(query)
	terms := toks[:0]
	for _, t := range toks {
		if !stopwords[t] {
			terms = append(terms, t)
		}
	}
	return terms
}

type posting struct {
	docID int
	tf    int
}

// Index is an inverted index over documents with BM25 scoring. It is safe
// for concurrent reads after Freeze (or interleaved Add/Search guarded by
// its internal lock).
type Index struct {
	mu       sync.RWMutex
	docs     []*Document
	postings map[string][]posting
	docLen   []int
	totalLen int
	k1, b    float64
	// titleBoost weights title occurrences (BM25F-style field boost):
	// a term in the title counts as titleBoost body occurrences.
	titleBoost int
}

// NewIndex returns an empty index with standard BM25 parameters
// (k1=1.2, b=0.75) and the shared English stopword list.
func NewIndex() *Index {
	return &Index{
		postings:   map[string][]posting{},
		k1:         1.2,
		b:          0.75,
		titleBoost: 2,
	}
}

// Add indexes a document and returns its ID (which doubles as its
// GlobalID — use AddGlobal when this index holds one shard of a larger
// corpus).
func (ix *Index) Add(title, body string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.add(len(ix.docs), title, body)
}

// AddGlobal indexes one shard-local document that is globalID in the
// full corpus's numbering. Local IDs are still assigned densely in call
// order; callers partitioning a corpus must add documents in ascending
// global order so local rank ties and global rank ties agree.
func (ix *Index) AddGlobal(globalID int, title, body string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.add(globalID, title, body)
}

func (ix *Index) add(globalID int, title, body string) int {
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

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// TotalLen returns the summed document length (in indexed term
// occurrences) — one of the corpus statistics an aggregator merges.
func (ix *Index) TotalLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.totalLen
}

// Doc returns the document with the given ID, or nil.
func (ix *Index) Doc(id int) *Document {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.docs) {
		return nil
	}
	return ix.docs[id]
}

// GlobalStats carries the corpus-wide statistics BM25 needs when the
// corpus is partitioned: total document count, total corpus length, and
// per-term document frequencies, each summed across every shard. With
// these, a shard scores its local postings exactly as the unsharded
// index would.
type GlobalStats struct {
	Docs     int            // corpus-wide document count (N)
	TotalLen int            // corpus-wide summed document length
	DocFreq  map[string]int // corpus-wide df per query term
}

// IDF is the BM25 inverse document frequency for a term appearing in df
// of n documents. Exported so leaf and aggregator score with the same
// expression (and thus identical floating-point results).
func IDF(df, n int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// TFNorm is the BM25 term-frequency saturation for a term occurring tf
// times in a document of length docLen, against corpus average avgLen.
func TFNorm(tf, docLen, avgLen, k1, b float64) float64 {
	return tf * (k1 + 1) / (tf + k1*(1-b+b*docLen/avgLen))
}

// BM25K1 and BM25B are the index's fixed BM25 parameters, exported for
// the aggregator-side rescoring in internal/shard.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// scoresPool recycles the per-query docID->score accumulator map:
// retrieval is on the QA hot path and the map would otherwise be an
// O(matching docs) allocation per query.
var scoresPool = sync.Pool{
	New: func() any { return make(map[int]float64, 64) },
}

func getScores() map[int]float64 { return scoresPool.Get().(map[int]float64) }

func putScores(m map[int]float64) {
	clear(m)
	scoresPool.Put(m)
}

// Search returns the top-k documents for query under BM25 using this
// index's own (local) statistics.
func (ix *Index) Search(query string, k int) []Result {
	return ix.SearchGlobal(query, k, nil)
}

// SearchGlobal is Search with aggregator-supplied corpus statistics:
// when gs is non-nil, document frequencies, corpus size, and average
// document length come from gs instead of this index, so a shard ranks
// its slice of the corpus exactly as the whole-corpus index would.
// gs == nil scores with local statistics.
func (ix *Index) SearchGlobal(query string, k int, gs *GlobalStats) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	scores := getScores()
	defer putScores(scores)
	ix.score(QueryTerms(query), gs, scores)
	top := topKByScore(scores, k)
	results := make([]Result, len(top))
	for i, e := range top {
		results[i] = Result{Doc: ix.docs[e.id], Score: e.score}
	}
	return results
}

// score accumulates BM25 contributions for terms (in order) into the
// scores map, under local or global statistics. Caller holds ix.mu.
func (ix *Index) score(terms []string, gs *GlobalStats, scores map[int]float64) {
	docs, totalLen := len(ix.docs), ix.totalLen
	if gs != nil {
		docs, totalLen = gs.Docs, gs.TotalLen
	}
	if docs == 0 {
		return
	}
	avgLen := float64(totalLen) / float64(docs)
	for _, term := range terms {
		plist, ok := ix.postings[term]
		if !ok {
			continue
		}
		df := len(plist)
		if gs != nil {
			df = gs.DocFreq[term]
		}
		idf := IDF(df, docs)
		for _, p := range plist {
			scores[p.docID] += idf * TFNorm(float64(p.tf), float64(ix.docLen[p.docID]), avgLen, ix.k1, ix.b)
		}
	}
}

// scoredDoc is one (docID, score) pair inside the bounded top-k heap.
type scoredDoc struct {
	id    int
	score float64
}

// worse reports whether a ranks strictly below b: lower score, ties
// broken by the larger doc ID — the inverse of the final result order
// (score descending, ID ascending).
func worse(a, b scoredDoc) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// topKByScore selects the k best entries of scores without sorting the
// whole map: a bounded min-heap (rooted at the worst kept entry) holds
// at most k candidates, so selection is O(n log k) time and O(k) space
// instead of the former O(n log n) full sort of an O(n) slice. The
// returned slice is ordered best-first, identical to sorting all
// entries by (score desc, id asc) and truncating.
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
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
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
			// Sift up.
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if worse(h[0], e) {
			h[0] = e
			siftDown(0)
		}
	}
	// Pop worst-first into the tail so the slice ends best-first.
	out := h
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h = h[:n]
		siftDown(0)
	}
	return out
}

// Stats reports this index's local statistics for a query's terms:
// df[i] is the local document frequency of terms[i], docs and totalLen
// the local corpus size. An aggregator sums these across shards to form
// GlobalStats.
func (ix *Index) Stats(terms []string) (df []int, docs, totalLen int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	df = make([]int, len(terms))
	for i, t := range terms {
		df[i] = len(ix.postings[t])
	}
	return df, len(ix.docs), ix.totalLen
}

// Candidate is one shard-local document matching a query, carrying the
// per-term frequencies and length the aggregator rescans under global
// statistics. TF[i] is the document's term frequency for the query's
// i-th term (title occurrences already boosted).
type Candidate struct {
	Doc *Document
	Len int
	TF  []int
}

// ranking is the scored documents as a binary heap with the best one (the
// highest score, the lowest ID among equals) at the root, so that pop
// walks them in result order for as far as the caller goes and no
// further: heaping them is linear, each pop logarithmic.
type ranking []scoredDoc

// rankingPool recycles the heap's array, which is as long as the query
// has matching documents.
var rankingPool = sync.Pool{New: func() any { return new(ranking) }}

// fill heaps the scored documents into r's array.
func (r *ranking) fill(scores map[int]float64) {
	h := (*r)[:0]
	for id, s := range scores {
		h = append(h, scoredDoc{id: id, score: s})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	*r = h
}

func (r ranking) siftDown(i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(r) && worse(r[best], r[l]) {
			best = l
		}
		if l := 2*i + 2; l < len(r) && worse(r[best], r[l]) {
			best = l
		}
		if best == i {
			return
		}
		r[i], r[best] = r[best], r[i]
		i = best
	}
}

// pop takes the best document left off a ranking that is not empty.
func (r *ranking) pop() scoredDoc {
	h := *r
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	h.siftDown(0)
	*r = h
	return top
}

// Candidates returns up to limit documents matching at least one of
// terms, ranked by local-statistics BM25 (the truncation order only —
// final ranking happens at the aggregator under global statistics).
// limit <= 0 returns every matching document.
//
// Documents with the same length and the same frequency of every term
// score the same under any statistics, local or global, and rank among
// themselves by ID: past the first perTie of such a group none can reach
// a top perTie anywhere. With perTie > 0 those are passed over, so a long
// run of look-alikes (every document of one length holding one query term
// once, say) cannot fill the list and hide a group that ranks below it
// here but above it globally.
func (ix *Index) Candidates(terms []string, limit, perTie int) []Candidate {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 {
		return nil
	}
	scores := getScores()
	defer putScores(scores)
	ix.score(terms, nil, scores)
	if limit <= 0 || limit > len(scores) {
		limit = len(scores)
	}
	left := rankingPool.Get().(*ranking)
	defer rankingPool.Put(left)
	left.fill(scores)
	out := make([]Candidate, 0, limit)
	// Look-alikes score alike, so they sit in one run of equal local
	// scores: groups holds, for the run being walked, one kept candidate
	// of each group and how many the group has had kept.
	type group struct {
		first int // index in out
		kept  int
	}
	var groups []group
	var runScore float64
	tf := make([]int, len(terms))
	for len(*left) > 0 && len(out) < limit {
		e := left.pop()
		length := ix.docLen[e.id]
		for ti, t := range terms {
			tf[ti] = ix.termFreq(t, e.id)
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

// termFreq looks up term's frequency in doc id via binary search over
// the posting list (lists are built in ascending docID order). Caller
// holds ix.mu.
func (ix *Index) termFreq(term string, id int) int {
	plist := ix.postings[term]
	i := sort.Search(len(plist), func(i int) bool { return plist[i].docID >= id })
	if i < len(plist) && plist[i].docID == id {
		return plist[i].tf
	}
	return 0
}

// TermCount returns the number of distinct indexed terms.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}
