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
//
// How many documents fit on a leaf is the memory a document costs, so an
// index is laid out as flat, exactly sized arrays: the titles and bodies
// in one string, a sorted term dictionary of offsets into one key string,
// and each term's postings as a run of uint32 document IDs beside a run of
// uint16 term frequencies. A term is found by binary search. Add appends
// to a pending tail and the first read after it merges the tail in, so an
// index that is built and then served merges once.
package search

import (
	"encoding/binary"
	"fmt"
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

// titleBoost weights title occurrences (BM25F-style field boost): a
// term in the title counts as titleBoost body occurrences.
const titleBoost = 2

// Index is an inverted index over documents with BM25 scoring. Any number
// of goroutines may Add to it and read it at once.
//
// Add appends to a pending tail under the write lock. The first read after
// an Add merges the tail into a fresh flat index under the write lock, by a
// counting sort over the terms: a new document's ID is above every merged
// one, so each term's list is its old postings followed by its new ones.
// A flat index is never written after its merge, so reads share it without
// holding the lock, and an index that is built and then served merges once.
type Index struct {
	mu   sync.RWMutex
	flat *flat // the documents merged so far
	tail tail  // the documents added since the last merge
}

// flat is a merged index, every array sized exactly.
//
// Term i of the dictionary is keys[keyOff[i]:keyOff[i+1]], terms in
// ascending order, and its postings are ids[postOff[i]:postOff[i+1]], in
// ascending document ID, with the title-boosted term frequencies at the
// same positions of tfs. A document's Title and Body are substrings of one
// string: the merge that took the document in copies every new title and
// body into one, so an index built and then served holds its text in one
// string.
type flat struct {
	docs     []Document
	docLen   []uint32
	totalLen int
	keys     string
	keyOff   []uint32
	postOff  []uint32
	ids      []uint32
	tfs      []uint16
}

// tail is what Add has appended since the last merge: the documents as
// given, and their postings in the order they came, each naming its term by
// the term's index in names.
type tail struct {
	docs     []Document
	docLen   []uint32
	totalLen int
	index    map[string]uint32 // term -> its index in names
	names    []string
	term     []uint32
	ids      []uint32
	tfs      []uint16
}

// NewIndex returns an empty index with standard BM25 parameters
// (k1=1.2, b=0.75) and the shared English stopword list.
func NewIndex() *Index {
	return &Index{flat: &flat{}}
}

// Add indexes a document and returns its ID (which doubles as its
// GlobalID — use AddGlobal when this index holds one shard of a larger
// corpus).
func (ix *Index) Add(title, body string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.add(ix.size(), title, body)
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

// size is the number of documents added, merged or not. Caller holds ix.mu.
func (ix *Index) size() int {
	return len(ix.flat.docs) + len(ix.tail.docs)
}

// add appends a document to the tail. It panics if the document does not
// fit the layout's fields, before it writes anything. Caller holds ix.mu
// for writing.
func (ix *Index) add(globalID int, title, body string) int {
	counts := map[string]int{}
	for _, t := range Tokenize(title) {
		if !stopwords[t] {
			counts[t] += titleBoost
		}
	}
	for _, t := range Tokenize(body) {
		if !stopwords[t] {
			counts[t]++
		}
	}
	n := 0
	for t, c := range counts {
		if c > math.MaxUint16 {
			panic(fmt.Sprintf("search: %q counts %d times in one document, more than a posting's uint16 term frequency holds", t, c))
		}
		n += c
	}
	t, id := &ix.tail, ix.size()
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("search: a document of %d terms is longer than a uint32 document length holds", n))
	}
	if uint64(id) > math.MaxUint32 || uint64(len(ix.flat.ids)+len(t.ids)+len(counts)) > math.MaxUint32 {
		panic("search: an index holds at most 2^32 documents and 2^32 postings")
	}
	if t.index == nil {
		t.index = map[string]uint32{}
	}
	for term, c := range counts {
		p, ok := t.index[term]
		if !ok {
			term = strings.Clone(term) // the key must not keep the caller's text alive
			p = uint32(len(t.names))
			t.index[term] = p
			t.names = append(t.names, term)
		}
		t.term = append(t.term, p)
		t.ids = append(t.ids, uint32(id))
		t.tfs = append(t.tfs, uint16(c))
	}
	t.docs = append(t.docs, Document{ID: id, GlobalID: globalID, Title: title, Body: body})
	t.docLen = append(t.docLen, uint32(n))
	t.totalLen += n
	return id
}

// view returns the merged index, first merging the tail into it if Add
// has appended to the tail since the last merge.
func (ix *Index) view() *flat {
	ix.mu.RLock()
	f, merged := ix.flat, len(ix.tail.docs) == 0
	ix.mu.RUnlock()
	if merged {
		return f
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.tail.docs) > 0 {
		ix.flat = ix.flat.merge(&ix.tail)
		ix.tail = tail{}
	}
	return ix.flat
}

// merge returns a new flat index holding f's documents followed by t's.
func (f *flat) merge(t *tail) *flat {
	old, docs := len(f.docs), len(f.docs)+len(t.docs)
	m := &flat{
		docs:     make([]Document, docs),
		docLen:   make([]uint32, docs),
		totalLen: f.totalLen + t.totalLen,
		ids:      make([]uint32, len(f.ids)+len(t.ids)),
		tfs:      make([]uint16, len(f.tfs)+len(t.tfs)),
	}
	copy(m.docs, f.docs)
	copy(m.docLen, f.docLen)
	copy(m.docLen[old:], t.docLen)
	size := 0
	for _, d := range t.docs {
		size += len(d.Title) + len(d.Body)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, d := range t.docs {
		sb.WriteString(d.Title)
		sb.WriteString(d.Body)
	}
	text := sb.String()
	for i, d := range t.docs {
		d.Title, text = text[:len(d.Title)], text[len(d.Title):]
		d.Body, text = text[:len(d.Body)], text[len(d.Body):]
		m.docs[old+i] = d
	}

	// The merged dictionary is every old term and every tail term the old
	// dictionary lacks, in key order; an entry names the term's place in
	// each part it is in, or -1.
	type entry struct {
		key       string
		old, tail int
	}
	entries := make([]entry, f.terms(), f.terms()+len(t.names))
	keyLen := len(f.keys)
	for i := range entries {
		entries[i] = entry{key: f.key(i), old: i, tail: -1}
	}
	for p, name := range t.names {
		if i := f.find(name); i >= 0 {
			entries[i].tail = p
		} else {
			entries = append(entries, entry{key: name, old: -1, tail: p})
			keyLen += len(name)
		}
	}
	if uint64(keyLen) > math.MaxUint32 {
		panic("search: an index's terms hold at most 2^32 bytes")
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })

	// Counting sort: next[p] counts tail term p's postings, then becomes
	// the slot its next posting goes to, after the term's old postings.
	next := make([]uint32, len(t.names))
	for _, p := range t.term {
		next[p]++
	}
	m.keyOff = make([]uint32, len(entries)+1)
	m.postOff = make([]uint32, len(entries)+1)
	var keys strings.Builder
	keys.Grow(keyLen)
	at := uint32(0)
	for i, e := range entries {
		keys.WriteString(e.key)
		m.keyOff[i+1] = uint32(keys.Len())
		if e.old >= 0 {
			lo, hi := f.postOff[e.old], f.postOff[e.old+1]
			copy(m.ids[at:], f.ids[lo:hi])
			copy(m.tfs[at:], f.tfs[lo:hi])
			at += hi - lo
		}
		if e.tail >= 0 {
			at, next[e.tail] = at+next[e.tail], at
		}
		m.postOff[i+1] = at
	}
	m.keys = keys.String()
	for j, p := range t.term {
		m.ids[next[p]], m.tfs[next[p]] = t.ids[j], t.tfs[j]
		next[p]++
	}
	return m
}

// terms is the number of terms in the dictionary.
func (f *flat) terms() int {
	return max(len(f.keyOff)-1, 0)
}

// key returns term i of the dictionary.
func (f *flat) key(i int) string {
	return f.keys[f.keyOff[i]:f.keyOff[i+1]]
}

// find returns term's index in the dictionary, or -1.
func (f *flat) find(term string) int {
	i := sort.Search(f.terms(), func(i int) bool { return f.key(i) >= term })
	if i < f.terms() && f.key(i) == term {
		return i
	}
	return -1
}

// postings returns term's posting list: the IDs of the documents holding
// it, ascending, and its frequency in each.
func (f *flat) postings(term string) (ids []uint32, tfs []uint16) {
	i := f.find(term)
	if i < 0 {
		return nil, nil
	}
	lo, hi := f.postOff[i], f.postOff[i+1]
	return f.ids[lo:hi:hi], f.tfs[lo:hi:hi]
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	return len(ix.view().docs)
}

// Doc returns the document with the given ID, or nil.
func (ix *Index) Doc(id int) *Document {
	f := ix.view()
	if id < 0 || id >= len(f.docs) {
		return nil
	}
	return &f.docs[id]
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
	f := ix.view()
	if len(f.docs) == 0 || k <= 0 {
		return nil
	}
	top, _ := f.walk(QueryTerms(query), k, 0)
	results := make([]Result, len(top))
	for i, h := range top {
		results[i] = Result{Doc: &f.docs[h.id], Score: h.score}
	}
	return results
}

// Stats reports this index's local statistics for a query's terms:
// df[i] is the local document frequency of terms[i], docs and totalLen
// the local corpus size. An aggregator sums these across shards.
func (ix *Index) Stats(terms []string) (df []int, docs, totalLen int) {
	f := ix.view()
	df = make([]int, len(terms))
	for i, t := range terms {
		ids, _ := f.postings(t)
		df[i] = len(ids)
	}
	return df, len(f.docs), f.totalLen
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
	f := ix.view()
	if len(f.docs) == 0 {
		return nil
	}
	top, tfs := f.walk(terms, limit, perTie)
	m := len(terms)
	out := make([]Candidate, len(top))
	for i, h := range top {
		row := tfs[h.row*m : (h.row+1)*m : (h.row+1)*m]
		out[i] = Candidate{Doc: &f.docs[h.id], Len: int(f.docLen[h.id]), TF: row}
	}
	return out
}

// cursor is the walk's place in one query term's posting list.
type cursor struct {
	ids []uint32
	tfs []uint16
	at  int
	doc int // ids[at], or spent once the list is
	idf float64
}

// spent is a cursor's doc once its list is walked: above every document ID.
const spent = math.MaxInt

// advance moves the cursor to the next posting.
func (c *cursor) advance() {
	c.at++
	c.doc = spent
	if c.at < len(c.ids) {
		c.doc = int(c.ids[c.at])
	}
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
// tfs[h.row*len(terms)+i].
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
func (f *flat) walk(terms []string, limit, perTie int) (top []hit, tfs []int) {
	m, docs := len(terms), len(f.docs)
	avgLen := float64(f.totalLen) / float64(docs)
	curs := make([]cursor, m)
	postings := 0
	for i, t := range terms {
		ids, tfs := f.postings(t)
		curs[i] = cursor{ids: ids, tfs: tfs, at: -1, idf: IDF(len(ids), docs)}
		curs[i].advance()
		postings += len(ids)
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
		id := spent
		for i := range curs {
			id = min(id, curs[i].doc)
		}
		if id == spent {
			break
		}
		length := f.docLen[id]
		score := 0.0
		for i := range curs {
			c := &curs[i]
			tf[i] = 0
			if c.doc == id {
				tf[i] = int(c.tfs[c.at])
				c.advance()
				score += c.idf * TFNorm(float64(tf[i]), float64(length), avgLen, BM25K1, BM25B)
			}
		}
		e := hit{id: id, score: score, row: len(h)}
		full := len(h) == limit
		if full && !worse(h[0], e) {
			continue
		}
		if groups != nil {
			key = binary.AppendUvarint(key[:0], uint64(length))
			for _, n := range tf {
				key = binary.AppendUvarint(key, uint64(n))
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
