package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/telemetry"
)

// parityQueries exercise single-term, multi-term, stopword-heavy, and
// high-df shapes against the kb corpus.
var parityQueries = []string{
	"what is the capital of italy",
	"who is the author of harry potter",
	"capital",
	"famous history region travel",
	"where is las vegas",
	"rome",
}

// execAll runs the leaf request against every shard in-process.
func execAll(shards []*search.Index, req Request) []Response {
	resps := make([]Response, len(shards))
	for i, ix := range shards {
		resps[i] = Exec(ix, req, i, len(shards))
	}
	return resps
}

func buildShards(cfg kb.CorpusConfig, n int) []*search.Index {
	out := make([]*search.Index, n)
	for i := range out {
		out[i] = kb.BuildCorpusShard(cfg, i, n)
	}
	return out
}

func assertParity(t *testing.T, query string, oracle []search.Result, hits []SearchHit) {
	t.Helper()
	if len(hits) != len(oracle) {
		t.Fatalf("%q: %d sharded vs %d unsharded results", query, len(hits), len(oracle))
	}
	for i := range oracle {
		if hits[i].ID != oracle[i].Doc.ID {
			t.Fatalf("%q pos %d: sharded doc %d, unsharded doc %d", query, i, hits[i].ID, oracle[i].Doc.ID)
		}
		if d := math.Abs(hits[i].Score - oracle[i].Score); d > 1e-9 {
			t.Fatalf("%q pos %d: score drift %.3g (sharded %v, unsharded %v)", query, i, d, hits[i].Score, oracle[i].Score)
		}
		if hits[i].Title != oracle[i].Doc.Title || hits[i].Body != oracle[i].Doc.Body {
			t.Fatalf("%q pos %d: document text differs", query, i)
		}
	}
}

// synthTier indexes the 100k-document synthetic corpus whole and in the
// benchmark's 4 leaves, once for every test that needs it: each document
// is generated once and added to both. kb's tests hold BuildSynthShard to
// the same partition.
var synthTier = sync.OnceValues(func() (*search.Index, []*search.Index) {
	cfg := kb.DefaultSynthConfig()
	var whole search.Builder
	parts := make([]search.Builder, 4)
	for id := 0; id < cfg.Docs; id++ {
		title, body := kb.SynthDoc(cfg, id)
		whole.Add(id, title, body)
		parts[kb.ShardOf(id, len(parts))].Add(id, title, body)
	}
	shards := make([]*search.Index, len(parts))
	for i := range parts {
		shards[i] = parts[i].Build()
	}
	return whole.Build(), shards
})

func TestShardedRankingParityKB(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	whole := kb.BuildCorpus(cfg)
	for _, n := range []int{1, 2, 4} {
		shards := buildShards(cfg, n)
		for _, q := range parityQueries {
			terms := search.QueryTerms(q)
			oracle := whole.Search(q, 10)
			hits := Merge(terms, execAll(shards, Request{Terms: terms, K: 10}), 10)
			assertParity(t, q, oracle, hits)
		}
	}
}

func TestShardedRankingParitySynth(t *testing.T) {
	cfg := kb.SynthConfig{Docs: 2000, Vocab: 512, Words: 20, Seed: 11}
	whole := kb.BuildSynthCorpus(cfg)
	shards := []*search.Index{
		kb.BuildSynthShard(cfg, 0, 3),
		kb.BuildSynthShard(cfg, 1, 3),
		kb.BuildSynthShard(cfg, 2, 3),
	}
	for i := 0; i < 10; i++ {
		q := kb.SynthQuery(cfg, i)
		terms := search.QueryTerms(q)
		oracle := whole.Search(q, 10)
		// K covers the whole corpus so no leaf truncates: this isolates
		// the merge math, which must be exact.
		hits := Merge(terms, execAll(shards, Request{Terms: terms, K: cfg.Docs}), 10)
		assertParity(t, q, oracle, hits)
	}
}

func TestTruncationRecallSynth(t *testing.T) {
	// With the default overfetch, leaf-side truncation ranks by LOCAL
	// statistics and may drop a borderline global top-k document when a
	// head term matches most of the corpus. Document that approximation:
	// recall@10 against the unsharded oracle stays high even on the
	// Zipf-skewed synthetic corpus (the kb corpus never truncates, so
	// parity there is exact — see TestShardedRankingParityKB).
	cfg := kb.SynthConfig{Docs: 2000, Vocab: 512, Words: 20, Seed: 11}
	whole := kb.BuildSynthCorpus(cfg)
	shards := []*search.Index{
		kb.BuildSynthShard(cfg, 0, 3),
		kb.BuildSynthShard(cfg, 1, 3),
		kb.BuildSynthShard(cfg, 2, 3),
	}
	overlap, want := 0, 0
	for i := 0; i < 10; i++ {
		q := kb.SynthQuery(cfg, i)
		terms := search.QueryTerms(q)
		inOracle := map[int]bool{}
		for _, r := range whole.Search(q, 10) {
			inOracle[r.Doc.ID] = true
		}
		want += len(inOracle)
		for _, h := range Merge(terms, execAll(shards, Request{Terms: terms, K: 10}), 10) {
			if inOracle[h.ID] {
				overlap++
			}
		}
	}
	if overlap*10 < want*9 { // recall@10 >= 90%
		t.Fatalf("truncation recall too low: %d/%d", overlap, want)
	}
}

// TestShardedParityAcrossLookAlikes is the query the end-to-end benchmark
// found the tier's invariant broken on. Every synthetic document is as
// long as every other, so all that hold one query term once score alike:
// hundreds per leaf. On two of the four leaves the local document
// frequencies put the term530 group above the term515 group, the other
// way round from the whole corpus, and a leaf that fills its candidate
// list from the top never gets to its term515 documents, of which the
// global top 10 has one from each. A leaf keeps no more of a group of
// look-alikes than can matter, so its list reaches past the group.
func TestShardedParityAcrossLookAlikes(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes the 100k-document synthetic corpus")
	}
	whole, shards := synthTier()
	const q, k = "term515 term530", 10
	terms := search.QueryTerms(q)
	// As the frontend's scatter sends it.
	resps := execAll(shards, Request{Terms: terms, K: k})
	assertParity(t, q, whole.Search(q, k), Merge(terms, resps, k))
}

// TestShardedParitySynthSweep runs the search benchmark's query draws
// for seeds 1-4 (256 a seed, over the 100k-document corpus in 4 leaves)
// at the request shape the frontend's scatter sends, and holds every
// merged top 10 to the unsharded index's.
func TestShardedParitySynthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes the 100k-document synthetic corpus")
	}
	cfg := kb.DefaultSynthConfig()
	whole, shards := synthTier()
	const k = 10
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 256; i++ {
			q := kb.SynthQuery(cfg, rng.Intn(1<<20))
			terms := search.QueryTerms(q)
			assertParity(t, q, whole.Search(q, k), Merge(terms, execAll(shards, Request{Terms: terms, K: k}), k))
		}
	}
}

func TestMergeDegenerate(t *testing.T) {
	if Merge([]string{"x"}, nil, 10) != nil {
		t.Fatal("no responses must merge to nil")
	}
	if Merge(nil, []Response{{Docs: 5, TotalLen: 50}}, 0) != nil {
		t.Fatal("k=0 must merge to nil")
	}
	empty := Response{Docs: 0, TotalLen: 0, DF: []int{0}}
	if Merge([]string{"x"}, []Response{empty}, 5) != nil {
		t.Fatal("empty corpus must merge to nil")
	}
}

func TestMergeDuplicateQueryTerms(t *testing.T) {
	// A duplicated query term must contribute twice, exactly as the
	// unsharded scorer's per-term loop does.
	cfg := kb.DefaultCorpusConfig()
	whole := kb.BuildCorpus(cfg)
	shards := buildShards(cfg, 2)
	q := "capital capital italy"
	terms := search.QueryTerms(q)
	oracle := whole.Search(q, 10)
	hits := Merge(terms, execAll(shards, Request{Terms: terms, K: 10}), 10)
	assertParity(t, q, oracle, hits)
}

func TestMergeBestEffortSubset(t *testing.T) {
	// Dropping one shard's response still yields a valid ranking over
	// the remaining shards' documents (the partial-results contract).
	cfg := kb.DefaultCorpusConfig()
	shards := buildShards(cfg, 2)
	terms := search.QueryTerms("capital of italy")
	resps := execAll(shards, Request{Terms: terms, K: 10})
	hits := Merge(terms, resps[:1], 10)
	if len(hits) == 0 {
		t.Fatal("surviving shard should still produce results")
	}
	for _, h := range hits {
		if kb.ShardOf(h.ID, 2) != 0 {
			t.Fatalf("doc %d does not belong to shard 0", h.ID)
		}
	}
	// Scores stay descending with ID tie-break.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestLeafHTTPParity(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	whole := kb.BuildCorpus(cfg)
	// One registry per leaf, as in real deployments (one leaf per process).
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		leaf := NewLeaf(kb.BuildCorpusShard(cfg, i, 2), i, 2, regs[i])
		mux := http.NewServeMux()
		mux.Handle("/v1/shard/search", leaf)
		s := httptest.NewServer(mux)
		defer s.Close()
		servers = append(servers, s)
	}
	for _, q := range parityQueries {
		terms := search.QueryTerms(q)
		body, _ := json.Marshal(Request{Terms: terms, K: 10})
		var resps []Response
		for _, s := range servers {
			httpResp, err := http.Post(s.URL+"/v1/shard/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			frame, err := io.ReadAll(httpResp.Body)
			if err != nil {
				t.Fatal(err)
			}
			r, err := DecodeResponse(frame)
			if err != nil {
				t.Fatal(err)
			}
			httpResp.Body.Close()
			resps = append(resps, r)
		}
		assertParity(t, q, whole.Search(q, 10), Merge(terms, resps, 10))
	}
	for i, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sirius_shard_leaf_seconds_count %d\n", len(parityQueries)); !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("leaf %d metrics lack %q", i, want)
		}
	}
}

func TestLeafRejectsBadInput(t *testing.T) {
	leaf := NewLeaf(new(search.Builder).Build(), 0, 1, nil)
	rec := httptest.NewRecorder()
	leaf.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shard/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	leaf.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/search", bytes.NewReader([]byte("{not json"))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
}

func TestLeafBoundsK(t *testing.T) {
	leaf := NewLeaf(kb.BuildCorpusShard(kb.DefaultCorpusConfig(), 0, 1), 0, 1, nil)
	for _, tc := range []struct{ k, code int }{{MaxK, http.StatusOK}, {MaxK + 1, http.StatusBadRequest}, {1_000_000, http.StatusBadRequest}} {
		body, _ := json.Marshal(Request{Terms: []string{"capital"}, K: tc.k})
		rec := httptest.NewRecorder()
		leaf.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/search", bytes.NewReader(body)))
		if rec.Code != tc.code {
			t.Fatalf("k=%d: status %d, want %d", tc.k, rec.Code, tc.code)
		}
	}
}

// TestLeafBoundsTerms: a leaf's walk costs matching documents × terms, so a
// request of more than MaxTerms terms is refused before it runs.
func TestLeafBoundsTerms(t *testing.T) {
	leaf := NewLeaf(kb.BuildCorpusShard(kb.DefaultCorpusConfig(), 0, 1), 0, 1, nil)
	for _, tc := range []struct{ terms, code int }{{MaxTerms, http.StatusOK}, {MaxTerms + 1, http.StatusBadRequest}, {20_000, http.StatusBadRequest}} {
		body, _ := json.Marshal(Request{Terms: strings.Fields(strings.Repeat("capital ", tc.terms)), K: 10})
		rec := httptest.NewRecorder()
		leaf.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/search", bytes.NewReader(body)))
		if rec.Code != tc.code {
			t.Fatalf("%d terms: status %d, want %d", tc.terms, rec.Code, tc.code)
		}
	}
}

func TestClientRetrieve(t *testing.T) {
	// A fake frontend serving a canned merged response.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(SearchResponse{
			Results: []SearchHit{{ID: 7, Title: "t", Body: "b", Score: 1.5}},
			Partial: true,
			Shards:  2,
		})
	})
	s := httptest.NewServer(mux)
	defer s.Close()
	c := &Client{BaseURL: s.URL}
	results, partial, err := c.Retrieve(context.Background(), "anything", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !partial {
		t.Fatal("partial flag lost")
	}
	if len(results) != 1 || results[0].Doc.ID != 7 || results[0].Doc.GlobalID != 7 || results[0].Score != 1.5 {
		t.Fatalf("results: %+v", results)
	}
}

func TestClientErrorStatus(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no shards", http.StatusServiceUnavailable)
	}))
	defer s.Close()
	if _, _, err := (&Client{BaseURL: s.URL}).Retrieve(context.Background(), "q", 5); err == nil {
		t.Fatal("non-200 must error")
	}
}

func TestOverfetch(t *testing.T) {
	if Overfetch(1) != 32 || Overfetch(10) != 40 || Overfetch(100) != 400 {
		t.Fatalf("Overfetch: %d %d %d", Overfetch(1), Overfetch(10), Overfetch(100))
	}
}

// BenchmarkExec is one leaf's work for one query: a quarter of the
// 100k-document synthetic corpus answering the frontend's k = 10.
func BenchmarkExec(b *testing.B) {
	cfg := kb.DefaultSynthConfig()
	ix := kb.BuildSynthShard(cfg, 0, 4)
	queries := make([][]string, 256)
	for i := range queries {
		queries[i] = search.QueryTerms(kb.SynthQuery(cfg, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execSink = Exec(ix, Request{Terms: queries[i%len(queries)], K: 10}, 0, 4)
	}
}

var execSink Response
