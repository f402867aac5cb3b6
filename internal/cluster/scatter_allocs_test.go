//go:build !race

package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/shard"
)

// TestScatterAllocs caps the allocations of one /v1/search (k = 10)
// through a Frontend to four httptest leaves over the 581-document QA
// corpus, counted across the process: the client's request, the
// frontend's handler, scatter and merge, and each leaf's Exec and frame.
// The race detector's sync.Pool drops puts, so the count is taken
// without it. The cap is what a served process reads, 840: the count
// drops by 5 while the request-id sequence is below 256 and by 5 more
// while the span-id one is, as fmt boxes those without allocating (the
// runtime's small-integer table). So the row reads 830 alone and 835
// after the package's other tests (20 runs of the test binary each).
func TestScatterAllocs(t *testing.T) {
	const shards, budget = 4, 840
	cfg := kb.DefaultCorpusConfig()
	f, srv := searchFrontend(t, FrontendConfig{})
	for i := 0; i < shards; i++ {
		leaf := newShardLeaf(t, kb.BuildCorpusShard(cfg, i, shards), i, shards, false)
		if _, err := f.AddShardBackend(leaf.srv.URL, "search", i, shards); err != nil {
			t.Fatal(err)
		}
	}
	const q = "what is the capital of italy"
	if resp, sr := doSearch(t, srv.URL, q, 10, nil); resp.StatusCode != http.StatusOK || sr.Partial || len(sr.Results) != 10 {
		t.Fatalf("status %d, partial %v, %d results", resp.StatusCode, sr.Partial, len(sr.Results))
	}
	body, err := json.Marshal(shard.SearchRequest{Query: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	search()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(10, search)
	t.Logf("one scatter: %v allocations", n)
	if n > budget {
		t.Errorf("one scatter: %v allocations, budget %v", n, budget)
	}
}
