// Package shard is the sharded knowledge-base search tier: the wire
// protocol and aggregation logic that let N leaf indexes, each holding
// one hash-partition of the corpus, answer a query with the exact
// ranking a single whole-corpus index would produce. It reproduces the
// leaf/aggregator topology the paper compares Sirius against in §3
// (traditional web search): a frontend scatters the query to every
// leaf, each leaf returns its top candidates plus local corpus
// statistics, and the aggregator rescores the union under the merged
// global statistics.
//
// BM25 needs three corpus-wide quantities — document count N, total
// corpus length, and per-term document frequency df — that no single
// shard knows. Each leaf therefore reports its local values alongside
// its candidates; the aggregator sums them (exact integer sums, so the
// derived floats are bit-identical to the unsharded index's) and
// recomputes every candidate's score with the same search.IDF /
// search.TFNorm expressions Index.Search uses, accumulating per-term
// contributions in the same order. Ties break on GlobalID, which equals
// the unsharded document ID. The result: sharded top-k == unsharded
// top-k, order and scores included.
package shard

import (
	"sort"

	"sirius/internal/search"
)

// Request is the leaf search request body (POST /v1/shard/search).
// Terms is the stopword-filtered tokenized query (search.QueryTerms),
// pre-split by the aggregator so every leaf scores the identical term
// sequence.
type Request struct {
	Terms []string `json:"terms"`
	K     int      `json:"k"`
}

// Posting is one candidate document in a leaf response. TF is aligned
// with Request.Terms: TF[i] is this document's (title-boosted) term
// frequency for the i-th query term.
type Posting struct {
	GlobalID int    `json:"id"`
	Len      int    `json:"len"`
	TF       []int  `json:"tf"`
	Title    string `json:"title"`
	Body     string `json:"body"`
}

// Response is one leaf's answer: its best candidates under local
// ranking, plus the local statistics the aggregator merges. DF is
// aligned with Request.Terms.
type Response struct {
	Shard    int       `json:"shard"`
	Shards   int       `json:"shards"`
	Docs     int       `json:"docs"`
	TotalLen int       `json:"total_len"`
	DF       []int     `json:"df"`
	Postings []Posting `json:"postings"`
}

// SearchRequest is the aggregator's external API (POST /v1/search on
// the frontend).
type SearchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k"`
}

// SearchHit is one merged result.
type SearchHit struct {
	ID    int     `json:"id"` // global document ID
	Title string  `json:"title"`
	Body  string  `json:"body"`
	Score float64 `json:"score"`
}

// SearchResponse is the aggregator's answer. Partial is true when at
// least one shard missed its per-shard budget and the ranking was
// merged from the shards that did answer (best-effort, paper §3's
// tail-tolerant fan-out).
type SearchResponse struct {
	Results      []SearchHit `json:"results"`
	Partial      bool        `json:"partial"`
	Shards       int         `json:"shards"`
	FailedShards []int       `json:"failed_shards,omitempty"`
}

// MaxK bounds the k a search request may ask for, on either tier: a leaf
// ranks, encodes and ships Overfetch(k) candidates with their text, so an
// unbounded k would let one small request cost megabytes per leaf.
const MaxK = 100

// MaxTerms bounds the query terms a search request may carry, on either
// tier: a leaf's walk costs matching documents × terms and keeps a tf table
// of Overfetch(k) × terms, so an unbounded term list would let one request
// of a long repeated word cost a leaf most of a second and tens of
// megabytes.
const MaxTerms = 32

// Overfetch returns how many candidates a leaf returns for a final
// top-k. It is applied once, at the leaf: the aggregator sends the
// caller's k. Local-ranking truncation then cannot in practice hide a
// global top-k document (a leaf's local idf ordering only reshuffles
// within its matching set; several multiples of k plus a fixed floor
// cover the realistic skew).
func Overfetch(k int) int {
	n := 4 * k
	if n < 32 {
		n = 32
	}
	return n
}

// Exec answers a leaf request against a local shard index — the
// transport-independent core of the leaf handler, also usable
// in-process for tests and benchmarks. It returns Overfetch(req.K)
// candidates, and of documents that no statistics can tell apart (one
// length, one frequency of every term) only the req.K lowest IDs: Merge
// orders such a group by GlobalID, so the rest cannot reach a top req.K,
// and a leaf whose local statistics rank a large group of them first
// would otherwise spend its whole list on it.
func Exec(ix *search.Index, req Request, shardID, shards int) Response {
	df, docs, totalLen := ix.Stats(req.Terms)
	cands := ix.Candidates(req.Terms, Overfetch(req.K), req.K)
	resp := Response{
		Shard:    shardID,
		Shards:   shards,
		Docs:     docs,
		TotalLen: totalLen,
		DF:       df,
		Postings: make([]Posting, len(cands)),
	}
	for i, c := range cands {
		resp.Postings[i] = Posting{
			GlobalID: c.Doc.GlobalID,
			Len:      c.Len,
			TF:       c.TF,
			Title:    c.Doc.Title,
			Body:     c.Doc.Body,
		}
	}
	return resp
}

// Merge rescores every candidate from the responding leaves under the
// merged global statistics and returns the top-k, ranked exactly as the
// unsharded index would rank them (score descending, global ID
// ascending; identical floating-point scores).
func Merge(terms []string, resps []Response, k int) []SearchHit {
	if k <= 0 || len(resps) == 0 {
		return nil
	}
	// Merge corpus statistics: exact integer sums across shards.
	docs, totalLen := 0, 0
	df := make([]int, len(terms))
	for _, r := range resps {
		docs += r.Docs
		totalLen += r.TotalLen
		for i := range df {
			if i < len(r.DF) {
				df[i] += r.DF[i]
			}
		}
	}
	if docs == 0 {
		return nil
	}
	avgLen := float64(totalLen) / float64(docs)
	// Per-term idf under global df — hoisted so every candidate's
	// contributions use the identical values.
	idf := make([]float64, len(terms))
	for i := range terms {
		idf[i] = search.IDF(df[i], docs)
	}
	type scored struct {
		p     *Posting
		score float64
	}
	var all []scored
	for ri := range resps {
		for pi := range resps[ri].Postings {
			p := &resps[ri].Postings[pi]
			s := 0.0
			// Same accumulation order as Index.Search's per-term loop:
			// term 0's contribution first, then term 1's, ... — float
			// addition order matters for bit-exactness.
			for i := range terms {
				if i < len(p.TF) && p.TF[i] > 0 {
					s += idf[i] * search.TFNorm(float64(p.TF[i]), float64(p.Len), avgLen, search.BM25K1, search.BM25B)
				}
			}
			if s > 0 {
				all = append(all, scored{p: p, score: s})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].p.GlobalID < all[j].p.GlobalID
	})
	if k > len(all) {
		k = len(all)
	}
	hits := make([]SearchHit, k)
	for i := 0; i < k; i++ {
		hits[i] = SearchHit{
			ID:    all[i].p.GlobalID,
			Title: all[i].p.Title,
			Body:  all[i].p.Body,
			Score: all[i].score,
		}
	}
	return hits
}

// searchResults converts merged hits into search.Result values (Doc.ID and
// GlobalID both carry the corpus-wide ID), the shape the QA engine's
// retrieval stage consumes.
func searchResults(hits []SearchHit) []search.Result {
	out := make([]search.Result, len(hits))
	for i, h := range hits {
		out[i] = search.Result{
			Doc:   &search.Document{ID: h.ID, GlobalID: h.ID, Title: h.Title, Body: h.Body},
			Score: h.Score,
		}
	}
	return out
}
