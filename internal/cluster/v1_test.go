package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestClassifyQueryJSON(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`{"text":"what is up"}`, kindQA},
		{`{"audio":"UklGRg=="}`, kindASR},
		{`{"text":"when does this close","image":"iVBORw=="}`, kindIMM},
		{`{"audio":"UklGRg==","image":"iVBORw=="}`, kindIMM},
		{`{"audio":null,"image":""}`, kindQA},
		{`not json at all`, kindQA},
	}
	for _, c := range cases {
		if got := classifyQuery([]byte(c.body)); got != c.want {
			t.Errorf("ClassifyQuery(%s) = %q, want %q", c.body, got, c.want)
		}
	}
}

// TestFrontendV1PathPreserved proves the proxy is path-preserving: a
// client hitting /v1/query must reach the backend's /v1/query. The
// unversioned /query is no route at all: a 404 from the frontend that
// never reaches a backend.
func TestFrontendV1PathPreserved(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ok")
			return
		}
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		fmt.Fprintln(w, `{"answer":"ok"}`)
	}))
	defer backend.Close()

	f := NewFrontend(FrontendConfig{CheckInterval: 0})
	if _, err := f.AddBackend(backend.URL, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	defer srv.Close()

	for path, want := range map[string]int{"/v1/query": http.StatusOK, "/query": http.StatusNotFound} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"text":"hi"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(paths) != 1 || paths[0] != "/v1/query" {
		t.Fatalf("backend saw paths %v, want [/v1/query]", paths)
	}
}

// TestFrontendErrorEnvelope covers the failures the frontend itself
// originates: they carry the same JSON envelope shape the backends
// emit, with the minted request id inside.
func TestFrontendErrorEnvelope(t *testing.T) {
	f := NewFrontend(FrontendConfig{CheckInterval: 0})
	srv := httptest.NewServer(f)
	defer srv.Close()

	// No backends registered → no_backends, 503.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(`{"text":"hi"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var env struct {
		Code      int    `json:"code"`
		Reason    string `json:"reason"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("frontend error is not an envelope: %v", err)
	}
	if env.Code != http.StatusServiceUnavailable || env.Reason != "no_backends" || env.RequestID == "" {
		t.Fatalf("bad envelope %+v", env)
	}
	if got := resp.Header.Get("X-Request-Id"); got != env.RequestID {
		t.Fatalf("envelope id %q != header id %q", env.RequestID, got)
	}

	// Wrong method → bad_method envelope, 405.
	gresp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", gresp.StatusCode)
	}
	env.Reason = ""
	if err := json.NewDecoder(gresp.Body).Decode(&env); err != nil || env.Reason != "bad_method" {
		t.Fatalf("GET envelope %+v (%v)", env, err)
	}
}
