package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubBackend emulates a sirius-server replica: /readyz with a drain
// switch, /v1/query with failure and delay switches, X-Request-Id echo and
// the X-Sirius-Inflight load header.
type stubBackend struct {
	name    string
	srv     *httptest.Server
	fail    atomic.Bool
	shed    atomic.Bool // answer 429 overloaded (admission gate full)
	drain   atomic.Bool
	delay   atomic.Int64 // nanoseconds added to each /v1/query
	loadRep atomic.Int64 // X-Sirius-Inflight figure /readyz reports

	mu      sync.Mutex
	lastID  string // X-Request-Id seen on the last /v1/query
	queries atomic.Int64
	streams atomic.Int64 // /v1/stream sessions served
}

func newStubBackend(t *testing.T, name string) *stubBackend {
	t.Helper()
	s := &stubBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sirius-Inflight", fmt.Sprint(s.loadRep.Load()))
		if s.drain.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.queries.Add(1)
		id := r.Header.Get("X-Request-Id")
		s.mu.Lock()
		s.lastID = id
		s.mu.Unlock()
		if d := time.Duration(s.delay.Load()); d > 0 {
			time.Sleep(d)
		}
		w.Header().Set("X-Sirius-Inflight", "0")
		if id != "" {
			w.Header().Set("X-Request-Id", id)
		}
		if s.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if s.shed.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"code":429,"reason":"overloaded","request_id":%q}`, id)
			return
		}
		fmt.Fprintf(w, "answer from %s", name)
	})
	// A minimal /v1/stream: one partial echoed per chunk as it arrives
	// (flushed immediately — the relay tests depend on incremental
	// delivery), then a final at end-of-audio.
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		s.streams.Add(1)
		s.mu.Lock()
		s.lastID = r.Header.Get("X-Request-Id")
		s.mu.Unlock()
		_ = http.NewResponseController(w).EnableFullDuplex()
		fl, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		dec := json.NewDecoder(r.Body)
		seq := 0
		for {
			var c struct {
				PCM []byte `json:"pcm"`
				End bool   `json:"end"`
			}
			if err := dec.Decode(&c); err != nil || c.End {
				break
			}
			fmt.Fprintf(w, "{\"type\":\"partial\",\"text\":\"chunk from %s\",\"seq\":%d}\n", name, seq)
			seq++
			fl.Flush()
		}
		fmt.Fprintf(w, "{\"type\":\"final\",\"text\":\"final from %s\",\"seq\":%d}\n", name, seq)
		fl.Flush()
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubBackend) seenID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastID
}

// newTestFrontend wires a frontend (no background checks — tests probe
// explicitly) with the given backends and serves it over httptest.
func newTestFrontend(t *testing.T, cfg FrontendConfig, backends ...*stubBackend) (*Frontend, *httptest.Server) {
	t.Helper()
	cfg.CheckInterval = 0
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 5 * time.Millisecond
	}
	f := NewFrontend(cfg)
	for _, b := range backends {
		if _, err := f.AddBackend(b.srv.URL, ""); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return f, srv
}

// textQuery builds the JSON body a text /v1/query carries.
func textQuery(t *testing.T, text string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]string{"text": text}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func postQuery(t *testing.T, url, text string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", textQuery(t, text))
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
	return resp
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestParseKinds(t *testing.T) {
	for _, s := range []string{"", "all", "ALL"} {
		km, err := ParseKinds(s)
		if err != nil || km != nil {
			t.Fatalf("ParseKinds(%q) = %v, %v", s, km, err)
		}
	}
	km, err := ParseKinds("asr, qa")
	if err != nil || !km[kindASR] || !km[kindQA] || km[kindIMM] {
		t.Fatalf("ParseKinds(asr,qa) = %v, %v", km, err)
	}
	if _, err := ParseKinds("asr,bogus"); err == nil {
		t.Fatal("unknown kind must error")
	}
	b := &Backend{}
	b.setRole(km, 0, 0)
	if !b.serves(kindASR) || b.serves(kindIMM) {
		t.Fatal("Serves ignores the kind set")
	}
	if (&Backend{}).serves(kindIMM) == false {
		t.Fatal("kindless backend serves everything")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var transitions []string
	clock := time.Unix(0, 0)
	b := newBreaker(2, 100*time.Millisecond, func(from, to breakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	b.now = func() time.Time { return clock }

	if !b.allow() {
		t.Fatal("closed breaker must admit")
	}
	b.record(false)
	b.record(true) // success resets the consecutive count
	b.record(false)
	if b.currentState() != breakerClosed {
		t.Fatalf("state %v after non-consecutive failures", b.currentState())
	}
	b.record(false)
	if b.currentState() != breakerOpen {
		t.Fatalf("state %v after threshold failures", b.currentState())
	}
	if b.allow() {
		t.Fatal("open breaker admitted before cool-off")
	}

	clock = clock.Add(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired breaker must admit the probe")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state %v after probe admitted", b.currentState())
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.record(false) // probe fails: re-open
	if b.currentState() != breakerOpen {
		t.Fatalf("state %v after failed probe", b.currentState())
	}
	clock = clock.Add(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("re-expired breaker must admit")
	}
	b.record(true) // probe passes: close
	if b.currentState() != breakerClosed {
		t.Fatalf("state %v after passed probe", b.currentState())
	}
	want := []string{"closed>open", "open>half_open", "half_open>open", "open>half_open", "half_open>closed"}
	if strings.Join(transitions, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

// A canceled probe (hedge loser, client disconnect) must hand the
// half-open slot back, and a probe that never reports at all must lose
// the slot after the cool-off — either leak would blackhole the backend
// forever.
func TestBreakerProbeSlotRecovery(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(1, 100*time.Millisecond, nil)
	b.now = func() time.Time { return clock }

	// cancelProbe releases the slot without a verdict.
	b.record(false) // open
	clock = clock.Add(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired breaker must admit the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.cancelProbe()
	if !b.allow() {
		t.Fatal("canceled probe must free the slot for the next attempt")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.currentState())
	}

	// A probe lost without even a cancel is reclaimed after the
	// cool-off period.
	clock = clock.Add(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("stale probe slot must be reclaimed after the cool-off")
	}
	b.record(true)
	if b.currentState() != breakerClosed {
		t.Fatalf("state %v after successful probe", b.currentState())
	}
}

// Load trusts the self-reported figure only while fresh; a stale
// reading must not keep outvoting the local in-flight count (it would
// starve a now-idle replica under P2C).
func TestBackendLoadStaleness(t *testing.T) {
	b := &Backend{}
	b.inflight.Store(2)
	if b.load() != 2 {
		t.Fatalf("Load() = %d with no report, want local 2", b.load())
	}
	b.setReported(7)
	if b.load() != 7 {
		t.Fatalf("Load() = %d with fresh report, want 7", b.load())
	}
	b.reportedAt.Store(time.Now().Add(-2 * reportedLoadTTL).UnixNano())
	if b.load() != 2 {
		t.Fatalf("Load() = %d with stale report, want local 2", b.load())
	}
}

// Re-registration must adopt the announced role (kinds and shard
// assignment) while keeping the original entry's breaker and health
// state — an autoscaler respawn that comes back as a different pool
// member would otherwise silently keep its old membership.
func TestReRegistrationUpdatesRole(t *testing.T) {
	reg := newRegistry()
	first, err := newBackend("http://10.0.0.7:8080", "asr", newBreaker(3, time.Second, nil))
	if err != nil {
		t.Fatal(err)
	}
	first.healthy.Store(true)
	if got := reg.add(first); got != first {
		t.Fatal("first Add must insert the backend")
	}

	second, err := newBackend("http://10.0.0.7:8080", "search", nil)
	if err != nil {
		t.Fatal(err)
	}
	second.setRole(second.kinds(), 1, 4)
	got := reg.add(second)
	if got != first {
		t.Fatal("re-Add must return the original entry")
	}
	if got.breaker != first.breaker {
		t.Fatal("re-registration must preserve the breaker")
	}
	if !got.healthy.Load() {
		t.Fatal("re-registration must preserve health state")
	}
	if got.serves(kindASR) || !got.serves(KindSearch) {
		t.Fatalf("stale kinds survived re-registration: %s", got.KindsString())
	}
	if si, sn := got.shardSpec(); si != 1 || sn != 4 {
		t.Fatalf("shard spec %d/%d after re-registration, want 1/4", si, sn)
	}
	if len(reg.readyFor(KindSearch)) != 1 || len(reg.readyFor(kindASR)) != 0 {
		t.Fatal("router ready sets must follow the new role")
	}
}

// A backend that re-registers over HTTP with changed kinds must be
// routed by its new role end to end: asr-only first (text queries have
// no pool), then qa after the second registration.
func TestFrontendReRegistrationChangesRouting(t *testing.T) {
	b := newStubBackend(t, "morph")
	f, srv := newTestFrontend(t, DefaultFrontendConfig())

	if err := register(http.DefaultClient, srv.URL, Registration{URL: b.srv.URL, Kinds: "asr"}); err != nil {
		t.Fatal(err)
	}
	resp := postQuery(t, srv.URL, "text goes to qa", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("asr-only pool served a qa query: %d", resp.StatusCode)
	}

	if err := register(http.DefaultClient, srv.URL, Registration{URL: b.srv.URL, Kinds: "qa"}); err != nil {
		t.Fatal(err)
	}
	resp = postQuery(t, srv.URL, "text goes to qa", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-registered qa backend not routed: %d", resp.StatusCode)
	}
	if b.queries.Load() != 1 {
		t.Fatalf("backend served %d queries, want 1", b.queries.Load())
	}
	st := f.reg.status()
	if len(st) != 1 || st[0].Kinds != "qa" {
		t.Fatalf("status kinds after re-registration: %+v", st)
	}
}

// All three checkBackend failure paths must agree: a request-build
// error (URL stopped parsing) clears draining just like transport
// errors and bad statuses do, instead of wedging the backend in a
// permanent "draining" report.
func TestCheckBackendBuildErrorClearsDraining(t *testing.T) {
	b := &Backend{ID: "bad", URL: "http://bad host"} // space: NewRequest rejects it
	b.healthy.Store(true)
	b.draining.Store(true)
	newRegistry().checkBackend(context.Background(), http.DefaultClient, b)
	if b.healthy.Load() {
		t.Fatal("unbuildable probe must mark the backend unhealthy")
	}
	if b.draining.Load() {
		t.Fatal("unbuildable probe must clear draining like the other failure paths")
	}
}

// TestClassifyQuery routes by the fields a query body carries. A body
// that is not a JSON query — a multipart form among them — goes to the
// qa pool, whose backend rejects it with a bad_json envelope.
func TestClassifyQuery(t *testing.T) {
	build := func(fields ...string) []byte {
		q := map[string]any{}
		for _, f := range fields {
			if f == "text" {
				q["text"] = "hi"
			} else {
				q[f] = []byte{1, 2, 3}
			}
		}
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, tc := range []struct {
		fields []string
		want   string
	}{
		{[]string{"text"}, kindQA},
		{[]string{"audio"}, kindASR},
		{[]string{"audio", "text"}, kindASR},
		{[]string{"image"}, kindIMM},
		{[]string{"image", "audio"}, kindIMM},
	} {
		if got := classifyQuery(build(tc.fields...)); got != tc.want {
			t.Errorf("ClassifyQuery(%v) = %q, want %q", tc.fields, got, tc.want)
		}
	}
	if got := classifyQuery([]byte("x")); got != kindQA {
		t.Errorf("non-JSON classified %q", got)
	}
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, _ := mw.CreateFormFile("image", "q.png")
	fw.Write([]byte{1, 2, 3})
	mw.Close()
	if got := classifyQuery(form.Bytes()); got != kindQA {
		t.Errorf("multipart image form classified %q, want %q", got, kindQA)
	}
}

// Queries spread across the pool, and one request id follows the query
// across the process boundary in both directions.
func TestFrontendRoutingAndRequestID(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	b2 := newStubBackend(t, "b2")
	_, srv := newTestFrontend(t, DefaultFrontendConfig(), b1, b2)

	resp := postQuery(t, srv.URL, "what is up", map[string]string{"X-Request-Id": "req-test-42"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-test-42" {
		t.Fatalf("response request id %q", got)
	}
	if resp.Header.Get("X-Sirius-Backend") == "" {
		t.Fatal("missing X-Sirius-Backend")
	}
	served := b1
	if b2.queries.Load() > 0 {
		served = b2
	}
	if got := served.seenID(); got != "req-test-42" {
		t.Fatalf("backend saw request id %q", got)
	}

	// Without a client-supplied id the frontend mints one.
	resp = postQuery(t, srv.URL, "what is up", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("frontend did not mint a request id")
	}

	// Round-robin reaches both replicas.
	for i := 0; i < 4; i++ {
		resp := postQuery(t, srv.URL, "spread", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if b1.queries.Load() == 0 || b2.queries.Load() == 0 {
		t.Fatalf("unbalanced pool: b1=%d b2=%d", b1.queries.Load(), b2.queries.Load())
	}
}

// Killing one of two backends mid-load must stay invisible to clients:
// retries absorb the dead replica until its breaker opens.
func TestFrontendFailoverOnBackendKill(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	b2 := newStubBackend(t, "b2")
	_, srv := newTestFrontend(t, DefaultFrontendConfig(), b1, b2)

	b2.srv.Close() // hard kill: connections refused from here on

	for i := 0; i < 20; i++ {
		resp := postQuery(t, srv.URL, "failover", nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d (%s) — a dead replica leaked to the client", i, resp.StatusCode, body)
		}
	}
	out := metricsText(t, srv.URL)
	if !strings.Contains(out, "cluster_retries_total ") || strings.Contains(out, "cluster_retries_total 0") {
		t.Fatalf("expected retries after backend kill:\n%s", out)
	}
	if !strings.Contains(out, `cluster_breaker_transitions_total{backend="`+b2ID(b2)+`",to="open"}`) {
		t.Fatalf("dead backend's breaker never opened:\n%s", out)
	}
	if b1.queries.Load() != 20 {
		t.Fatalf("surviving backend served %d of 20", b1.queries.Load())
	}
}

func b2ID(s *stubBackend) string { return strings.TrimPrefix(s.srv.URL, "http://") }

// The breaker walks open → half-open → closed as the backend fails,
// cools off, and recovers; each transition lands on /metrics.
func TestFrontendBreakerOpenHalfOpenClose(t *testing.T) {
	b := newStubBackend(t, "flaky")
	cfg := DefaultFrontendConfig()
	cfg.MaxRetries = 0
	cfg.BreakerThreshold = 2
	cfg.BreakerOpenFor = 50 * time.Millisecond
	f, srv := newTestFrontend(t, cfg, b)

	b.fail.Store(true)
	for i := 0; i < 2; i++ {
		resp := postQuery(t, srv.URL, "q", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 500 {
			t.Fatalf("failing backend relayed status %d", resp.StatusCode)
		}
	}
	backend := f.reg.Get(b2ID(b))
	if backend.breaker.currentState() != breakerOpen {
		t.Fatalf("breaker %v after threshold failures", backend.breaker.currentState())
	}

	// Open breaker: the pool is effectively empty, fail fast.
	resp := postQuery(t, srv.URL, "q", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d, want 503", resp.StatusCode)
	}

	// Recovery: after the cool-off the single probe closes it.
	b.fail.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp = postQuery(t, srv.URL, "q", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("recovered backend returned %d", resp.StatusCode)
	}
	if backend.breaker.currentState() != breakerClosed {
		t.Fatalf("breaker %v after successful probe", backend.breaker.currentState())
	}
	out := metricsText(t, srv.URL)
	for _, want := range []string{
		`cluster_breaker_transitions_total{backend="` + b2ID(b) + `",to="open"} 1`,
		`cluster_breaker_transitions_total{backend="` + b2ID(b) + `",to="half_open"} 1`,
		`cluster_breaker_transitions_total{backend="` + b2ID(b) + `",to="closed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// A slow primary gets hedged onto the other replica after the delay,
// and the hedge's response answers the client.
func TestFrontendHedgeWins(t *testing.T) {
	slow := newStubBackend(t, "slow")
	fast := newStubBackend(t, "fast")
	slow.delay.Store(int64(300 * time.Millisecond))
	cfg := DefaultFrontendConfig()
	cfg.MaxRetries = 0
	cfg.Hedge = true
	cfg.HedgeMinDelay = 10 * time.Millisecond
	cfg.HedgeWarmup = 0
	_, srv := newTestFrontend(t, cfg, slow, fast)

	// Round-robin alternates, so of two queries exactly one lands its
	// primary on the slow replica and must be won by the hedge.
	for i := 0; i < 2; i++ {
		resp := postQuery(t, srv.URL, "tail", nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Sirius-Backend"); got != b2ID(fast) {
			t.Fatalf("query %d answered by %q, want the fast replica %q (body %q)", i, got, b2ID(fast), body)
		}
	}
	out := metricsText(t, srv.URL)
	if strings.Contains(out, "cluster_hedges_total 0") {
		t.Fatalf("no hedges launched:\n%s", out)
	}
	if strings.Contains(out, "cluster_hedge_wins_total 0") {
		t.Fatalf("no hedge wins recorded:\n%s", out)
	}
}

// /readyz is readiness (pool has a servable replica), /healthz is
// liveness; a draining backend leaves the pool without being evicted.
func TestFrontendReadyzAndDrain(t *testing.T) {
	b := newStubBackend(t, "b")
	f, srv := newTestFrontend(t, DefaultFrontendConfig(), b)

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d with a ready backend", ep, resp.StatusCode)
		}
	}

	// The backend starts draining: the next probe benches it — and
	// still refreshes the reported load figure.
	b.drain.Store(true)
	b.loadRep.Store(3)
	f.reg.checkOnce(context.Background(), http.DefaultClient)
	if got := f.reg.Get(b2ID(b)).reported.Load(); got != 3 {
		t.Fatalf("health check left reported load at %d, want 3", got)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d with a draining pool, want 503", resp.StatusCode)
	}
	// Liveness is unaffected.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz %d during drain", resp.StatusCode)
	}
	var status []BackendStatus
	resp, err = http.Get(srv.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status) != 1 || !status[0].Draining || status[0].Ready {
		t.Fatalf("pool view %+v, want draining, not ready, still listed", status)
	}

	// Drain finishes (backend back, e.g. after a rolling restart): the
	// next probe returns it to the pool.
	b.drain.Store(false)
	f.reg.checkOnce(context.Background(), http.DefaultClient)
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz %d after drain ended", resp.StatusCode)
	}
}

// Registration protocol: a backend announces itself over HTTP, serves,
// then withdraws; the pool follows.
func TestFrontendRegisterDeregister(t *testing.T) {
	b := newStubBackend(t, "b")
	_, srv := newTestFrontend(t, DefaultFrontendConfig())

	if err := register(http.DefaultClient, srv.URL, Registration{URL: b.srv.URL, Kinds: "qa"}); err != nil {
		t.Fatal(err)
	}
	resp := postQuery(t, srv.URL, "hello", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d after registration", resp.StatusCode)
	}
	if err := deregister(http.DefaultClient, srv.URL, Registration{URL: b.srv.URL}); err != nil {
		t.Fatal(err)
	}
	resp = postQuery(t, srv.URL, "hello", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after deregistration, want 503", resp.StatusCode)
	}
}

// Kind pools: an image query only routes to an imm-capable backend.
func TestFrontendKindPools(t *testing.T) {
	qaOnly := newStubBackend(t, "qa-only")
	immOnly := newStubBackend(t, "imm-only")
	f := NewFrontend(FrontendConfig{CheckInterval: 0, MaxRetries: 0})
	if _, err := f.AddBackend(qaOnly.srv.URL, "qa"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddBackend(immOnly.srv.URL, "imm"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(`{"image":"AQID"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Sirius-Backend"); got != b2ID(immOnly) {
		t.Fatalf("image query routed to %q, want the imm pool %q", got, b2ID(immOnly))
	}
	if qaOnly.queries.Load() != 0 {
		t.Fatal("image query leaked into the qa pool")
	}
}

// TestBackendsLatencyIsTheMetricsSeries: /backends summarises the same
// per-backend attempt histogram /metrics exposes, so after traffic —
// served attempts on two backends and a failed one that is retried —
// each backend's latency count is its
// cluster_backend_latency_seconds_count.
func TestBackendsLatencyIsTheMetricsSeries(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	b2 := newStubBackend(t, "b2")
	_, srv := newTestFrontend(t, FrontendConfig{MaxRetries: 1}, b1, b2)
	for i := 0; i < 6; i++ {
		if i == 4 {
			b1.fail.Store(true)
		}
		resp := postQuery(t, srv.URL, "what is the capital of france", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	var status []BackendStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mtext := metricsText(t, srv.URL)
	var total uint64
	for _, st := range status {
		want := fmt.Sprintf("cluster_backend_latency_seconds_count{backend=%q} %d\n", st.ID, st.Latency.Count)
		if !strings.Contains(mtext, want) {
			t.Errorf("/backends says %s saw %d attempts; /metrics lacks %q", st.ID, st.Latency.Count, want)
		}
		total += st.Latency.Count
	}
	if total < 6 {
		t.Fatalf("/backends counts %d attempts for 6 queries", total)
	}
}

// A backend at its admission limit answers 429: the frontend must treat
// the shed as retryable — the query lands on the other replica without
// the client noticing — while the shedding backend's breaker stays
// closed (it is alive and explicitly pushing load away, not failing).
func TestFrontendRetriesShedWithoutBreakerPenalty(t *testing.T) {
	full := newStubBackend(t, "full")
	healthy := newStubBackend(t, "healthy")
	full.shed.Store(true)
	cfg := DefaultFrontendConfig()
	cfg.BreakerThreshold = 2 // a couple of miscounted sheds would trip it
	_, srv := newTestFrontend(t, cfg, full, healthy)

	for i := 0; i < 10; i++ {
		resp := postQuery(t, srv.URL, "overflow", nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d (%s) — a shed leaked to the client", i, resp.StatusCode, body)
		}
	}
	if healthy.queries.Load() != 10 {
		t.Fatalf("healthy backend served %d of 10", healthy.queries.Load())
	}
	out := metricsText(t, srv.URL)
	if full.queries.Load() > 0 && !strings.Contains(out, `cluster_backend_requests_total{backend="`+b2ID(full)+`",outcome="shed"}`) {
		t.Fatalf("shed attempts not recorded under outcome=shed:\n%s", out)
	}
	if strings.Contains(out, `cluster_breaker_transitions_total{backend="`+b2ID(full)+`",to="open"}`) {
		t.Fatalf("admission sheds opened the shedding backend's breaker:\n%s", out)
	}
}

// When every live backend sheds, the frontend relays the last 429
// envelope verbatim and counts the query as overload, not backend
// failure — the fleet is healthy, just out of capacity.
func TestFrontendAllBackendsShedRelays429(t *testing.T) {
	full := newStubBackend(t, "full")
	full.shed.Store(true)
	cfg := DefaultFrontendConfig()
	cfg.MaxRetries = 1
	_, srv := newTestFrontend(t, cfg, full)

	resp := postQuery(t, srv.URL, "overflow", map[string]string{"X-Request-Id": "shed-relay-1"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	var env struct {
		Code      int    `json:"code"`
		Reason    string `json:"reason"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("relayed body not an envelope: %s (%v)", body, err)
	}
	if env.Code != http.StatusTooManyRequests || env.Reason != "overloaded" || env.RequestID != "shed-relay-1" {
		t.Fatalf("relayed envelope %+v", env)
	}
	out := metricsText(t, srv.URL)
	if !strings.Contains(out, `cluster_query_errors_total{reason="overloaded"} 1`) {
		t.Fatalf("all-shed query not counted as overloaded:\n%s", out)
	}
	if strings.Contains(out, `cluster_query_errors_total{reason="backend_failure"}`) {
		t.Fatalf("all-shed query miscounted as backend_failure:\n%s", out)
	}
}

// Get returns the backend with the given ID, or nil.
func (r *registry) Get(id string) *Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backends[id]
}
