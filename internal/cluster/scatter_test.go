package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sirius/internal/envelope"
	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/shard"
)

// shardLeaf emulates a sirius-server running in leaf mode: /readyz plus
// /v1/shard/search over one corpus partition. When blocked, search
// requests stall until the aggregator's shard budget cancels them — the
// deterministic slow-shard fault (the leaf never answers, so the
// partial outcome cannot race).
type shardLeaf struct {
	srv   *httptest.Server
	leaf  *shard.Leaf
	block chan struct{} // closed = unblocked; nil = never block
}

func newShardLeaf(t *testing.T, ix *search.Index, shardID, shards int, blocked bool) *shardLeaf {
	t.Helper()
	l := &shardLeaf{leaf: shard.NewLeaf(ix, shardID, shards, nil)}
	if blocked {
		l.block = make(chan struct{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/shard/search", func(w http.ResponseWriter, r *http.Request) {
		if l.block != nil {
			select {
			case <-l.block:
			case <-r.Context().Done():
				return
			}
		}
		l.leaf.ServeHTTP(w, r)
	})
	l.srv = httptest.NewServer(mux)
	t.Cleanup(l.srv.Close)
	return l
}

func searchFrontend(t *testing.T, cfg FrontendConfig) (*Frontend, *httptest.Server) {
	t.Helper()
	cfg.CheckInterval = 0
	f := NewFrontend(cfg)
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return f, srv
}

func doSearch(t *testing.T, url, query string, k int, hdr map[string]string) (*http.Response, shard.SearchResponse) {
	t.Helper()
	body, _ := json.Marshal(shard.SearchRequest{Query: query, K: k})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr shard.SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

func TestScatterGatherParityOverHTTP(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	whole := kb.BuildCorpus(cfg)
	for _, shards := range []int{2, 4} {
		f, srv := searchFrontend(t, FrontendConfig{})
		for i := 0; i < shards; i++ {
			leaf := newShardLeaf(t, kb.BuildCorpusShard(cfg, i, shards), i, shards, false)
			if _, err := f.AddShardBackend(leaf.srv.URL, "search", i, shards); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{
			"what is the capital of italy",
			"who is the author of harry potter",
			"capital",
			"where is las vegas",
		} {
			oracle := whole.Search(q, 10)
			resp, sr := doSearch(t, srv.URL, q, 10, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d %q: status %d", shards, q, resp.StatusCode)
			}
			if sr.Partial {
				t.Fatalf("shards=%d %q: unexpected partial", shards, q)
			}
			if sr.Shards != shards {
				t.Fatalf("shards=%d: response declares %d", shards, sr.Shards)
			}
			if len(sr.Results) != len(oracle) {
				t.Fatalf("shards=%d %q: %d vs %d results", shards, q, len(sr.Results), len(oracle))
			}
			for i := range oracle {
				if sr.Results[i].ID != oracle[i].Doc.ID {
					t.Fatalf("shards=%d %q pos %d: doc %d vs %d", shards, q, i, sr.Results[i].ID, oracle[i].Doc.ID)
				}
				if d := math.Abs(sr.Results[i].Score - oracle[i].Score); d > 1e-9 {
					t.Fatalf("shards=%d %q pos %d: score drift %g", shards, q, i, d)
				}
			}
		}
	}
}

// TestScatterSendsCallerK pins the overfetch to one place: the leaf. The
// aggregator forwards the client's k unchanged, and Exec overfetches.
func TestScatterSendsCallerK(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	leaf := shard.NewLeaf(kb.BuildCorpusShard(cfg, 0, 1), 0, 1, nil)
	ks := make(chan int, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/shard/search", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req shard.Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("leaf request: %v", err)
		}
		ks <- req.K
		r.Body = io.NopCloser(bytes.NewReader(body))
		leaf.ServeHTTP(w, r)
	})
	ls := httptest.NewServer(mux)
	t.Cleanup(ls.Close)
	if _, err := f.AddShardBackend(ls.URL, "search", 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, shard.MaxK} {
		resp, _ := doSearch(t, srv.URL, "capital", k, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, resp.StatusCode)
		}
		if got := <-ks; got != k {
			t.Fatalf("client k=%d: leaf received k=%d", k, got)
		}
	}
}

func TestScatterRejectsOversizedK(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	leaf := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 1), 0, 1, false)
	if _, err := f.AddShardBackend(leaf.srv.URL, "search", 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{shard.MaxK + 1, 1_000_000} {
		body, _ := json.Marshal(shard.SearchRequest{Query: "capital", K: k})
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || env.Reason != envelope.ReasonBadBody {
			t.Fatalf("k=%d: status %d, envelope %+v (%v)", k, resp.StatusCode, env, err)
		}
	}
}

// TestScatterRejectsTooManyTerms: the frontend counts a query's terms as
// the leaves will score them, stopwords dropped, and refuses more than
// MaxTerms with the bad_body envelope before it scatters.
func TestScatterRejectsTooManyTerms(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	leaf := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 1), 0, 1, false)
	if _, err := f.AddShardBackend(leaf.srv.URL, "search", 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		code  int
	}{
		{strings.Repeat("capital the ", shard.MaxTerms), http.StatusOK},
		{strings.Repeat("capital ", shard.MaxTerms+1), http.StatusBadRequest},
		{strings.Repeat("term1 ", 20_000), http.StatusBadRequest},
	} {
		body, _ := json.Marshal(shard.SearchRequest{Query: tc.query, K: 10})
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.code || tc.code == http.StatusBadRequest && (err != nil || env.Reason != envelope.ReasonBadBody) {
			t.Fatalf("%d-byte query: status %d, want %d; envelope %+v (%v)", len(tc.query), resp.StatusCode, tc.code, env, err)
		}
	}
}

func TestScatterGatherPartialOnSlowShard(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{ShardBudget: 100 * time.Millisecond})
	fast := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 2), 0, 2, false)
	slow := newShardLeaf(t, kb.BuildCorpusShard(cfg, 1, 2), 1, 2, true)
	if _, err := f.AddShardBackend(fast.srv.URL, "search", 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShardBackend(slow.srv.URL, "search", 1, 2); err != nil {
		t.Fatal(err)
	}
	resp, sr := doSearch(t, srv.URL, "what is the capital of italy", 10, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !sr.Partial {
		t.Fatal("slow shard must yield partial:true")
	}
	if len(sr.FailedShards) != 1 || sr.FailedShards[0] != 1 {
		t.Fatalf("failed shards: %v", sr.FailedShards)
	}
	if len(sr.Results) == 0 {
		t.Fatal("partial response must still carry shard 0's results")
	}
	for _, h := range sr.Results {
		if kb.ShardOf(h.ID, 2) != 0 {
			t.Fatalf("doc %d not from the surviving shard", h.ID)
		}
	}
	if got := f.shardSearches.With("partial").Value(); got != 1 {
		t.Fatalf(`sirius_shard_searches_total{outcome="partial"} = %d`, got)
	}
	// Unblock so the leaf goroutine exits before server close.
	close(slow.block)

	// Metric appears on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	if !strings.Contains(buf.String(), `sirius_shard_searches_total{outcome="partial"} 1`) {
		t.Fatal(`sirius_shard_searches_total{outcome="partial"} 1 missing from /metrics`)
	}
}

// TestScatterOldFormatLeafIsFailedShard: a leaf and a frontend are
// upgraded together. A leaf that still answers in JSON gives the
// aggregator a frame it rejects, and its shard is dropped as a dead one.
func TestScatterOldFormatLeafIsFailedShard(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	good := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 2), 0, 2, false)
	old := kb.BuildCorpusShard(cfg, 1, 2)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/shard/search", func(w http.ResponseWriter, r *http.Request) {
		var req shard.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("leaf request: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(shard.Exec(old, req, 1, 2))
	})
	ls := httptest.NewServer(mux)
	t.Cleanup(ls.Close)
	if _, err := f.AddShardBackend(good.srv.URL, "search", 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShardBackend(ls.URL, "search", 1, 2); err != nil {
		t.Fatal(err)
	}
	resp, sr := doSearch(t, srv.URL, "what is the capital of italy", 10, nil)
	if resp.StatusCode != http.StatusOK || !sr.Partial {
		t.Fatalf("status %d partial %v", resp.StatusCode, sr.Partial)
	}
	if len(sr.FailedShards) != 1 || sr.FailedShards[0] != 1 {
		t.Fatalf("failed shards: %v", sr.FailedShards)
	}
	if len(sr.Results) == 0 {
		t.Fatal("partial response must still carry shard 0's results")
	}
	for _, h := range sr.Results {
		if kb.ShardOf(h.ID, 2) != 0 {
			t.Fatalf("doc %d not from the decoded shard", h.ID)
		}
	}
}

func TestScatterGatherBudgetHeaderOverride(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	// Configured budget is generous; the request header tightens it so
	// the blocked shard fails fast.
	f, srv := searchFrontend(t, FrontendConfig{ShardBudget: time.Hour})
	fast := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 2), 0, 2, false)
	slow := newShardLeaf(t, kb.BuildCorpusShard(cfg, 1, 2), 1, 2, true)
	f.AddShardBackend(fast.srv.URL, "search", 0, 2)
	f.AddShardBackend(slow.srv.URL, "search", 1, 2)
	start := time.Now()
	resp, sr := doSearch(t, srv.URL, "capital", 5, map[string]string{ShardBudgetHeader: "80"})
	if resp.StatusCode != http.StatusOK || !sr.Partial {
		t.Fatalf("status %d partial %v", resp.StatusCode, sr.Partial)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("header budget ignored: took %v", e)
	}
	close(slow.block)
}

func TestScatterGatherAllShardsDown(t *testing.T) {
	f, srv := searchFrontend(t, FrontendConfig{ShardBudget: 100 * time.Millisecond})
	cfg := kb.DefaultCorpusConfig()
	slow := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 1), 0, 1, true)
	f.AddShardBackend(slow.srv.URL, "search", 0, 1)
	resp, _ := doSearch(t, srv.URL, "capital", 5, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all shards missing budget must 503, got %d", resp.StatusCode)
	}
	close(slow.block)
}

func TestScatterGatherNoShards(t *testing.T) {
	_, srv := searchFrontend(t, FrontendConfig{})
	resp, _ := doSearch(t, srv.URL, "capital", 5, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no shards must 503, got %d", resp.StatusCode)
	}
}

func TestScatterGatherMissingShardIsPartial(t *testing.T) {
	// Shard 1 of 2 never registered: no waiting, immediate partial.
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{ShardBudget: time.Hour})
	fast := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 2), 0, 2, false)
	f.AddShardBackend(fast.srv.URL, "search", 0, 2)
	start := time.Now()
	resp, sr := doSearch(t, srv.URL, "capital", 5, nil)
	if resp.StatusCode != http.StatusOK || !sr.Partial {
		t.Fatalf("status %d partial %v", resp.StatusCode, sr.Partial)
	}
	if len(sr.FailedShards) != 1 || sr.FailedShards[0] != 1 {
		t.Fatalf("failed shards: %v", sr.FailedShards)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("missing shard must not consume the budget")
	}
}

func TestScatterGatherInconsistentTopology(t *testing.T) {
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	a := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 2), 0, 2, false)
	b := newShardLeaf(t, kb.BuildCorpusShard(cfg, 0, 3), 0, 3, false)
	f.AddShardBackend(a.srv.URL, "search", 0, 2)
	f.AddShardBackend(b.srv.URL, "search", 0, 3)
	resp, _ := doSearch(t, srv.URL, "capital", 5, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("inconsistent topology must 503, got %d", resp.StatusCode)
	}
}

func TestShardRegistrationRoundTrip(t *testing.T) {
	// A leaf registering over HTTP carries its shard assignment into the
	// pool, and /backends reports it.
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	leaf := newShardLeaf(t, kb.BuildCorpusShard(cfg, 1, 2), 1, 2, false)
	if err := register(http.DefaultClient, srv.URL, Registration{
		URL: leaf.srv.URL, Kinds: "search", Shard: 1, Shards: 2,
	}); err != nil {
		t.Fatal(err)
	}
	all := f.reg.all()
	if len(all) != 1 {
		t.Fatalf("backends: %+v", all)
	}
	if si, sn := all[0].shardSpec(); si != 1 || sn != 2 {
		t.Fatalf("shard spec: %d/%d", si, sn)
	}
	st := f.reg.status()
	if st[0].Shard != "1/2" {
		t.Fatalf("status shard label: %q", st[0].Shard)
	}
	if _, err := f.AddShardBackend("http://127.0.0.1:1", "search", 5, 2); err == nil {
		t.Fatal("out-of-range shard must be rejected")
	}
}
