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
// uint16 term frequencies. A term is found by binary search.
//
// An index is built once and then only read, as a Nutch leaf probes the
// index its indexing job wrote before serving: a Builder takes the
// documents and Build lays them out in one pass, and the Index it returns
// is never written again, so any number of goroutines may read it at once
// without a lock.
package search

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
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
// agree on term positions, and Builder reads a document's terms the
// same way.
func QueryTerms(query string) []string {
	if !plain(query) {
		toks := Tokenize(query)
		terms := toks[:0]
		for _, t := range toks {
			if !stopwords[t] {
				terms = append(terms, t)
			}
		}
		return terms
	}
	n := 0
	for t, at := nextTerm(query, 0); t != ""; t, at = nextTerm(query, at) {
		n++
	}
	terms := make([]string, 0, n)
	for t, at := nextTerm(query, 0); t != ""; t, at = nextTerm(query, at) {
		terms = append(terms, t)
	}
	return terms
}

// plain reports whether text is lowercase ASCII, which nextTerm reads as
// Tokenize would: there a term is a run of the bytes a-z and 0-9.
// Tokenize lowercases other text first, and reads it rune by rune.
func plain(text string) bool {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// nextTerm scans plain text from offset at and returns its next term that
// is not a stopword, a substring of text, and the offset after it; "" at
// the end of text.
func nextTerm(text string, at int) (term string, next int) {
	for at < len(text) {
		for at < len(text) && !termByte(text[at]) {
			at++
		}
		start := at
		for at < len(text) && termByte(text[at]) {
			at++
		}
		if t := text[start:at]; t != "" && !stopwords[t] {
			return t, at
		}
	}
	return "", at
}

// termByte reports whether c belongs to a term of plain text.
func termByte(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
}

// titleBoost weights title occurrences (BM25F-style field boost): a
// term in the title counts as titleBoost body occurrences.
const titleBoost = 2

// Index is an inverted index over documents with BM25 scoring, as Build
// lays it out. It is never written after Build, so any number of goroutines
// may read it at once; the zero Index holds no documents.
//
// Term i of the dictionary is keys[keyOff[i]:keyOff[i+1]], terms in
// ascending order, and its postings are ids[postOff[i]:postOff[i+1]], in
// ascending document ID, with the title-boosted term frequencies at the
// same positions of tfs. Every document's Title and Body are substrings
// of one string, and every array is sized exactly.
type Index struct {
	docs     []Document
	docLen   []uint32
	totalLen int
	keys     string
	keyOff   []uint32
	postOff  []uint32
	ids      []uint32
	tfs      []uint16
}

// Builder collects the documents of an index until Build lays them out.
// Its zero value is ready to use. A Builder is not safe for concurrent
// use.
type Builder struct {
	docs     []Document
	docLen   []uint32
	totalLen int
	// The postings in the order they came, each naming its term by the
	// term's index in names.
	index map[string]uint32 // term -> its index in names
	names []string
	term  []uint32
	ids   []uint32
	tfs   []uint16
	// Add's scratch: tf[p] is the document's count of term p so far, and
	// seen the terms it has counted, in the order it met them.
	tf   []int
	seen []uint32
}

// Add adds a document that is globalID in the full corpus's numbering and
// returns its ID in the index, which counts the documents added before it.
// An index over a whole corpus adds each document with its ID as globalID;
// one holding a shard of a larger corpus adds its documents in ascending
// global order, so local rank ties and global rank ties agree.
//
// Add panics if the document does not fit the layout's fields, and leaves
// the Builder as it was: a term counted more than 65 535 times, a document
// longer than 2^32 terms, or an index past 2^32 documents or postings.
func (b *Builder) Add(globalID int, title, body string) int {
	known := len(b.names)
	b.count(title, titleBoost)
	b.count(body, 1)
	id, n := len(b.docs), 0
	for _, p := range b.seen {
		n += b.tf[p]
	}
	if msg := b.misfit(id, n); msg != "" {
		b.forget(known)
		panic(msg)
	}
	for _, p := range b.seen {
		b.term = append(b.term, p)
		b.ids = append(b.ids, uint32(id))
		b.tfs = append(b.tfs, uint16(b.tf[p]))
		b.tf[p] = 0
	}
	b.seen = b.seen[:0]
	b.docs = append(b.docs, Document{ID: id, GlobalID: globalID, Title: title, Body: body})
	b.docLen = append(b.docLen, uint32(n))
	b.totalLen += n
	return id
}

// misfit says why the document counted, document id of n terms, does not
// fit the layout's fields, or returns "" if it fits.
func (b *Builder) misfit(id, n int) string {
	for _, p := range b.seen {
		if c := b.tf[p]; c > math.MaxUint16 {
			return fmt.Sprintf("search: %q counts %d times in one document, more than a posting's uint16 term frequency holds", b.names[p], c)
		}
	}
	if uint64(n) > math.MaxUint32 {
		return fmt.Sprintf("search: a document of %d terms is longer than a uint32 document length holds", n)
	}
	if uint64(id) > math.MaxUint32 || uint64(len(b.ids)+len(b.seen)) > math.MaxUint32 {
		return "search: an index holds at most 2^32 documents and 2^32 postings"
	}
	return ""
}

// forget drops the document counted, and the terms it filed from
// names[known] on.
func (b *Builder) forget(known int) {
	for _, p := range b.seen {
		b.tf[p] = 0
	}
	for _, t := range b.names[known:] {
		delete(b.index, t)
	}
	b.names, b.tf, b.seen = b.names[:known], b.tf[:known], b.seen[:0]
}

// count adds weight to the document's count of each term of text,
// filing a term the index has not met under a new index in names.
func (b *Builder) count(text string, weight int) {
	if !plain(text) {
		for _, t := range QueryTerms(text) {
			b.countTerm(t, weight)
		}
		return
	}
	for t, at := nextTerm(text, 0); t != ""; t, at = nextTerm(text, at) {
		b.countTerm(t, weight)
	}
}

// countTerm adds weight to the document's count of term.
func (b *Builder) countTerm(term string, weight int) {
	p, ok := b.index[term]
	if !ok {
		if b.index == nil {
			b.index = map[string]uint32{}
		}
		p = uint32(len(b.names))
		b.index[term] = p
		b.names = append(b.names, term)
		b.tf = append(b.tf, 0)
	}
	if b.tf[p] == 0 {
		b.seen = append(b.seen, p)
	}
	b.tf[p] += weight
}

// Build lays the documents added out as an Index. It copies every title
// and body into one string and every term into one key string, so the
// index keeps none of the caller's strings alive, and it files the
// postings by a counting sort over the terms: documents were added in ID
// order, so each term's postings come out in ascending ID.
func (b *Builder) Build() *Index {
	docs := len(b.docs)
	ix := &Index{
		docs:     make([]Document, docs),
		docLen:   make([]uint32, docs),
		totalLen: b.totalLen,
		keyOff:   make([]uint32, len(b.names)+1),
		postOff:  make([]uint32, len(b.names)+1),
		ids:      make([]uint32, len(b.ids)),
		tfs:      make([]uint16, len(b.tfs)),
	}
	copy(ix.docLen, b.docLen)
	size := 0
	for _, d := range b.docs {
		size += len(d.Title) + len(d.Body)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, d := range b.docs {
		sb.WriteString(d.Title)
		sb.WriteString(d.Body)
	}
	text := sb.String()
	for i, d := range b.docs {
		d.Title, text = text[:len(d.Title)], text[len(d.Title):]
		d.Body, text = text[:len(d.Body)], text[len(d.Body):]
		ix.docs[i] = d
	}

	// The dictionary is the terms in key order: order[i] is the index in
	// names of term i.
	keyLen := 0
	order := make([]uint32, len(b.names))
	for p, name := range b.names {
		order[p] = uint32(p)
		keyLen += len(name)
	}
	if uint64(keyLen) > math.MaxUint32 {
		panic("search: an index's terms hold at most 2^32 bytes")
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(b.names[x], b.names[y]) })

	// Counting sort: next[p] counts term p's postings, then becomes the
	// slot its next posting goes to.
	next := make([]uint32, len(b.names))
	for _, p := range b.term {
		next[p]++
	}
	var keys strings.Builder
	keys.Grow(keyLen)
	at := uint32(0)
	for i, p := range order {
		keys.WriteString(b.names[p])
		ix.keyOff[i+1] = uint32(keys.Len())
		at, next[p] = at+next[p], at
		ix.postOff[i+1] = at
	}
	ix.keys = keys.String()
	for j, p := range b.term {
		ix.ids[next[p]], ix.tfs[next[p]] = b.ids[j], b.tfs[j]
		next[p]++
	}
	return ix
}

// terms is the number of terms in the dictionary.
func (ix *Index) terms() int {
	return max(len(ix.keyOff)-1, 0)
}

// key returns term i of the dictionary.
func (ix *Index) key(i int) string {
	return ix.keys[ix.keyOff[i]:ix.keyOff[i+1]]
}

// find returns term's index in the dictionary, or -1.
func (ix *Index) find(term string) int {
	i := sort.Search(ix.terms(), func(i int) bool { return ix.key(i) >= term })
	if i < ix.terms() && ix.key(i) == term {
		return i
	}
	return -1
}

// postings returns term's posting list: the IDs of the documents holding
// it, ascending, and its frequency in each.
func (ix *Index) postings(term string) (ids []uint32, tfs []uint16) {
	i := ix.find(term)
	if i < 0 {
		return nil, nil
	}
	lo, hi := ix.postOff[i], ix.postOff[i+1]
	return ix.ids[lo:hi:hi], ix.tfs[lo:hi:hi]
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	return len(ix.docs)
}

// Doc returns the document with the given ID, or nil.
func (ix *Index) Doc(id int) *Document {
	if id < 0 || id >= len(ix.docs) {
		return nil
	}
	return &ix.docs[id]
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
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	top, _ := ix.walk(QueryTerms(query), k, 0)
	results := make([]Result, len(top))
	for i, h := range top {
		results[i] = Result{Doc: &ix.docs[h.id], Score: h.score}
	}
	return results
}

// Stats reports this index's local statistics for a query's terms:
// df[i] is the local document frequency of terms[i], docs and totalLen
// the local corpus size. An aggregator sums these across shards.
func (ix *Index) Stats(terms []string) (df []int, docs, totalLen int) {
	df = make([]int, len(terms))
	for i, t := range terms {
		ids, _ := ix.postings(t)
		df[i] = len(ids)
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
	if len(ix.docs) == 0 {
		return nil
	}
	top, tfs := ix.walk(terms, limit, perTie)
	m := len(terms)
	out := make([]Candidate, len(top))
	for i, h := range top {
		row := tfs[h.row*m : (h.row+1)*m : (h.row+1)*m]
		out[i] = Candidate{Doc: &ix.docs[h.id], Len: int(ix.docLen[h.id]), TF: row}
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
func (ix *Index) walk(terms []string, limit, perTie int) (top []hit, tfs []int) {
	m, docs := len(terms), len(ix.docs)
	avgLen := float64(ix.totalLen) / float64(docs)
	curs := make([]cursor, m)
	postings := 0
	for i, t := range terms {
		ids, tfs := ix.postings(t)
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
		length := ix.docLen[id]
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
