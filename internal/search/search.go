// Package search is the web-search substrate of Sirius: an in-memory
// inverted index with BM25 ranking. It plays two roles from the paper:
// the traditional Web Search workload that the Scalability Gap compares
// against (§3, Apache Nutch), and the document-retrieval stage inside the
// OpenEphyra-style question-answering pipeline (§2.3.3).
//
// The index is shard-aware: a corpus can be partitioned across N leaf
// indexes (the paper's leaf/aggregator web-search topology), each
// holding shard-local term frequencies and document lengths. Candidates
// and Stats are the leaf half of that protocol; internal/shard's Merge
// sums every leaf's document frequencies and corpus size into global
// statistics and rescores the candidates, so distributed BM25 ranks
// byte-identically to a single index over the whole corpus.
package search

import (
	"encoding/binary"
	"math"
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

// Doc returns the document with the given ID, or nil.
func (ix *Index) Doc(id int) *Document {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.docs) {
		return nil
	}
	return ix.docs[id]
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

// Search returns the top-k documents for query under BM25.
func (ix *Index) Search(query string, k int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	top, _ := ix.walk(QueryTerms(query), k, 0)
	results := make([]Result, len(top))
	for i, h := range top {
		results[i] = Result{Doc: ix.docs[h.id], Score: h.score}
	}
	return results
}

// Stats reports this index's local statistics for a query's terms:
// df[i] is the local document frequency of terms[i], docs and totalLen
// the local corpus size. An aggregator sums these across shards.
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
	top, tfs := ix.walk(terms, limit, perTie)
	m := len(terms)
	out := make([]Candidate, len(top))
	for i, h := range top {
		row := tfs[h.row*m : (h.row+1)*m : (h.row+1)*m]
		out[i] = Candidate{Doc: ix.docs[h.id], Len: ix.docLen[h.id], TF: row}
	}
	return out
}

// cursor is the walk's place in one query term's posting list.
type cursor struct {
	plist []posting
	at    int
	idf   float64
}

// hit is a document the walk keeps: its ID, its score, and the row of
// the walk's tf table holding its frequency of each query term.
type hit struct {
	id    int
	score float64
	row   int
}

// worse reports whether a ranks strictly below b: lower score, ties
// broken by the larger doc ID — the inverse of the result order (score
// descending, ID ascending).
func worse(a, b hit) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// walk scores the documents matching terms a document at a time and
// returns the best limit of them (every one when limit <= 0), best
// first, with tfs, in which hit h's frequency of terms[i] is
// tfs[h.row*len(terms)+i]. Caller holds ix.mu.
//
// Posting lists are in ascending docID order, so merging the query's
// lists meets each matching document once with its frequency of every
// term in hand. Its score adds the terms' contributions in query order
// (a duplicated term has a cursor per position and counts twice), the
// same float sums a term-at-a-time accumulator makes. A heap rooted at
// the worst kept hit holds the best limit met so far.
//
// perTie > 0 applies Candidates' look-alike cap. A group's members
// arrive in ID order, which is their rank order, so the first perTie the
// heap takes are the ones a pass over the ranking would keep, and later
// members are not offered. Only documents the heap takes are counted: one
// it turns away ranks below everything it holds, and so does every later
// member of that group.
func (ix *Index) walk(terms []string, limit, perTie int) (top []hit, tfs []int) {
	m, docs := len(terms), len(ix.docs)
	avgLen := float64(ix.totalLen) / float64(docs)
	curs := make([]cursor, m)
	postings := 0
	for i, t := range terms {
		plist := ix.postings[t]
		curs[i] = cursor{plist: plist, idf: IDF(len(plist), docs)}
		postings += len(plist)
	}
	if limit <= 0 || limit > postings {
		limit = postings
	}
	h := make([]hit, 0, limit)
	tfs = make([]int, limit*m)
	tf := make([]int, m)
	var groups map[string]int
	var key []byte
	if perTie > 0 {
		groups = map[string]int{}
	}
	for {
		id := -1
		for i := range curs {
			if c := &curs[i]; c.at < len(c.plist) && (id < 0 || c.plist[c.at].docID < id) {
				id = c.plist[c.at].docID
			}
		}
		if id < 0 {
			break
		}
		length := ix.docLen[id]
		score := 0.0
		for i := range curs {
			c := &curs[i]
			tf[i] = 0
			if c.at < len(c.plist) && c.plist[c.at].docID == id {
				tf[i] = c.plist[c.at].tf
				c.at++
				score += c.idf * TFNorm(float64(tf[i]), float64(length), avgLen, ix.k1, ix.b)
			}
		}
		e := hit{id: id, score: score, row: len(h)}
		full := len(h) == limit
		if full && !worse(h[0], e) {
			continue
		}
		if groups != nil {
			key = binary.AppendUvarint(key[:0], uint64(length))
			for _, f := range tf {
				key = binary.AppendUvarint(key, uint64(f))
			}
			n := groups[string(key)]
			if n >= perTie {
				continue
			}
			groups[string(key)] = n + 1
		}
		if full {
			e.row = h[0].row
			h[0] = e
			siftDown(h, 0)
		} else {
			h = append(h, e)
			siftUp(h, len(h)-1)
		}
		copy(tfs[e.row*m:], tf)
	}
	// Pop worst-first into the tail so the slice ends best-first.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	return h, tfs
}

// siftDown restores the heap below i, worst hit at the root.
func siftDown(h []hit, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// siftUp moves h[i] up to its place in the heap.
func siftUp(h []hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}
