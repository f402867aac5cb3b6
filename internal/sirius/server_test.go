package sirius

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/telemetry"
)

// postText POSTs a text query and returns the HTTP response.
func postText(t *testing.T, url, text, suffix string) *http.Response {
	t.Helper()
	body, ctype, err := BuildJSONQuery(nil, nil, text)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query"+suffix, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerMetricsEndpoint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	// One answer, one action, one client error.
	postText(t, srv.URL, "what is the capital of france", "").Body.Close()
	postText(t, srv.URL, "call mom", "").Body.Close()
	postText(t, srv.URL, "", "").Body.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE sirius_query_errors_total counter",
		`sirius_query_errors_total{reason="empty_query"} 1`,
		"# TYPE sirius_inflight_requests gauge",
		"# TYPE sirius_query_latency_seconds histogram",
		`sirius_query_latency_seconds_count{kind="answer"} 1`,
		`sirius_query_latency_seconds_count{kind="action"} 1`,
		"# TYPE sirius_stage_latency_seconds histogram",
		`sirius_stage_latency_seconds_count{stage="qa"} 1`,
		`sirius_stage_latency_seconds_bucket{stage="qa",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServerTraceDump(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	// ?trace=1 returns the span tree inline with the answer.
	resp := postText(t, srv.URL, "what is the capital of france", "?trace=1")
	defer resp.Body.Close()
	var traced struct {
		Response
		Trace *telemetry.Trace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	if traced.Answer != "paris" {
		t.Fatalf("answer %q", traced.Answer)
	}
	if traced.Trace == nil || traced.Trace.ID == "" || traced.Trace.Root == nil {
		t.Fatalf("trace missing: %+v", traced.Trace)
	}
	if traced.Trace.Root.Duration <= 0 {
		t.Fatal("unfinished root span")
	}
	names := map[string]bool{}
	for _, c := range traced.Trace.Root.Children {
		names[c.Name] = true
	}
	if !names["qa"] {
		t.Fatalf("trace lacks qa span: %v", names)
	}

	// The same trace (and earlier ones) shows up in the ring buffer.
	dresp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var traces []*telemetry.Trace
	if err := json.NewDecoder(dresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("/debug/traces empty after a query")
	}
	found := false
	for _, tr := range traces {
		if tr.ID == traced.Trace.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("query trace %q not in /debug/traces", traced.Trace.ID)
	}

	// Untraced requests don't leak a trace field... but still land in
	// the ring buffer, so the JSON body must not include "trace".
	resp = postText(t, srv.URL, "what is the capital of france", "")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Fatalf("untraced response leaked trace: %s", raw)
	}
}

func TestServerStatsPerKindAndErrorRate(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	postText(t, srv.URL, "what is the capital of spain", "").Body.Close()
	postText(t, srv.URL, "call mom", "").Body.Close()
	postText(t, srv.URL, "", "").Body.Close() // client error

	// Served counts per kind are the latency histograms' _count, and the
	// error rate is read off the same scrape.
	m := scrapeSeries(t, srv.URL)
	answers := m[`sirius_query_latency_seconds_count{kind="answer"}`]
	actions := m[`sirius_query_latency_seconds_count{kind="action"}`]
	if answers != 1 || actions != 1 {
		t.Fatalf("served %v answers, %v actions; want 1 and 1", answers, actions)
	}
	var errs float64
	for name, v := range m {
		if strings.HasPrefix(name, "sirius_query_errors_total{") {
			errs += v
		}
	}
	if errs != 1 || m[`sirius_query_errors_total{reason="empty_query"}`] != 1 {
		t.Fatalf("errors %v; want the one empty_query", errs)
	}
	if rate, want := errs/(answers+actions+errs), 1.0/3.0; rate < want-1e-9 || rate > want+1e-9 {
		t.Fatalf("error rate %v, want %v", rate, want)
	}
	// Latency is split per kind: both kinds carry their own tail.
	if m[`sirius_query_latency_seconds_sum{kind="answer"}`] <= 0 || m[`sirius_query_latency_seconds_sum{kind="action"}`] <= 0 {
		t.Fatalf("per-kind latency sums %v, %v", m[`sirius_query_latency_seconds_sum{kind="answer"}`], m[`sirius_query_latency_seconds_sum{kind="action"}`])
	}
	if qa := m[`sirius_stage_latency_seconds_count{stage="qa"}`]; qa != 1 {
		t.Fatalf("qa stage count %v", qa)
	}
}

func TestServerPprof(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(raw, []byte("goroutine")) {
		t.Fatal("pprof index lacks profile listing")
	}
}

func TestServerConcurrentRequests(t *testing.T) {
	// Concurrent queries interleaved with /metrics and /debug/traces scrapes;
	// run under -race to validate histogram and registry locking.
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	post := func(text, suffix string) error {
		body, ctype, err := BuildJSONQuery(nil, nil, text)
		if err != nil {
			return err
		}
		resp, err := http.Post(srv.URL+"/v1/query"+suffix, ctype, body)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return errStatus(resp.StatusCode)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch w % 3 {
				case 0:
					q := kb.VoiceQueries[(w+i)%len(kb.VoiceQueries)]
					if err := post(q.Text, "?trace=1"); err != nil {
						errs <- err
					}
				case 1:
					q := kb.VoiceCommands[(w+i)%len(kb.VoiceCommands)]
					if err := post(q.Text, ""); err != nil {
						errs <- err
					}
				default:
					for _, path := range []string{"/metrics", "/debug/traces"} {
						resp, err := http.Get(srv.URL + path)
						if err != nil {
							errs <- err
							continue
						}
						if resp.StatusCode != 200 {
							errs <- errStatus(resp.StatusCode)
						}
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the storm, every served query is in the latency histograms
	// once: workers 0, 3 and 6 asked 4 questions each, 1, 4 and 7 gave 4
	// commands each.
	m := scrapeSeries(t, srv.URL)
	answers := m[`sirius_query_latency_seconds_count{kind="answer"}`]
	actions := m[`sirius_query_latency_seconds_count{kind="action"}`]
	if answers != 12 || actions != 12 {
		t.Fatalf("histograms count %v answers and %v actions, want 12 and 12", answers, actions)
	}
}

type errStatus int

func (e errStatus) Error() string { return http.StatusText(int(e)) }

// TestServerReadinessAndBackendHeaders covers the surface backend mode
// leans on: /readyz flips with SetReady (while /healthz stays green),
// a frontend-supplied X-Request-Id is adopted and echoed, and every
// /v1/query response self-reports load via X-Sirius-Inflight.
func TestServerReadinessAndBackendHeaders(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz %d at boot", got)
	}
	s.SetReady(false) // drain starts
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d while draining, want 503", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz %d while draining — liveness must not flip", got)
	}
	if s.ready.Load() {
		t.Fatal("ready while draining")
	}
	s.SetReady(true)
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz %d after drain ended", got)
	}

	// A routed query arrives with the frontend's request id: the server
	// adopts it (same id in both tiers' traces) and reports its load.
	body, ctype, err := BuildJSONQuery(nil, nil, "what is the capital of france")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Request-Id", "frontend-id-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "frontend-id-7" {
		t.Fatalf("X-Request-Id %q, want the frontend's id adopted", got)
	}
	if _, err := strconv.Atoi(resp.Header.Get("X-Sirius-Inflight")); err != nil {
		t.Fatalf("X-Sirius-Inflight %q not a number", resp.Header.Get("X-Sirius-Inflight"))
	}
	if s.admitted.Load() != 0 {
		t.Fatalf("Inflight %d after the query finished", s.admitted.Load())
	}
}

// scrapeSeries fetches /metrics and indexes every sample line by its
// series (name plus label set); exemplar suffixes are dropped.
func scrapeSeries(t *testing.T, url string) map[string]float64 {
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
	series := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// TestInflightGaugeReadsAdmissionGate: while one query holds its
// admission slot, the sirius_inflight_requests gauge, the /readyz load
// header and the query's own X-Sirius-Inflight header all read the one
// count the gate keeps.
func TestInflightGaugeReadsAdmissionGate(t *testing.T) {
	s := NewServer(pipeline(t))
	serve := func(method, path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec
	}
	inflight := func() string {
		t.Helper()
		for _, line := range strings.Split(serve(http.MethodGet, "/metrics", nil).Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "sirius_inflight_requests "); ok {
				return v
			}
		}
		t.Fatal("/metrics has no sirius_inflight_requests sample")
		return ""
	}

	// The handler reads the body only after admitting the query, and a
	// pipe write returns only once the handler has read it: the query
	// holds its slot until the rest of the body arrives.
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serve(http.MethodPost, "/v1/query", pr) }()
	if _, err := io.WriteString(pw, `{"text":"call mom"`); err != nil {
		t.Fatal(err)
	}
	if got := inflight(); got != "1" {
		t.Errorf("sirius_inflight_requests %s while one query is held, want 1", got)
	}
	if got := serve(http.MethodGet, "/readyz", nil).Header().Get("X-Sirius-Inflight"); got != "1" {
		t.Errorf("/readyz X-Sirius-Inflight %q while one query is held, want 1", got)
	}
	io.WriteString(pw, "}")
	pw.Close()
	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("held query: status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sirius-Inflight"); got != "1" {
		t.Errorf("query X-Sirius-Inflight %q, want 1 (itself)", got)
	}
	if got := inflight(); got != "0" {
		t.Errorf("sirius_inflight_requests %s after the query finished, want 0", got)
	}
}

// TestErrorsCountEveryRejection: after mixed traffic — both response
// kinds, a repeated query, a 405, a malformed JSON body and a
// /v1/stream session that ends in an error event — /metrics counts each
// served query once in its kind's latency histogram and each rejection
// once in sirius_query_errors_total, under its envelope reason.
func TestErrorsCountEveryRejection(t *testing.T) {
	srv := httptest.NewServer(NewServer(pipeline(t)))
	defer srv.Close()

	for _, tc := range []struct {
		method, ctype, body string
		status              int
	}{
		{http.MethodPost, "application/json", `{"text":"what is the capital of france"}`, http.StatusOK},
		{http.MethodPost, "application/json", `{"text":"what is the capital of france"}`, http.StatusOK},
		{http.MethodPost, "application/json", `{"text":"call mom"}`, http.StatusOK},
		{http.MethodGet, "", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "application/json", `{"text":`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+"/v1/query", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.body, resp.StatusCode, tc.status)
		}
	}
	ev, err := StreamSamples(t.Context(), srv.Client(), srv.URL+"/v1/stream", nil, 1600, nil, nil)
	if err != nil || ev.Type != "error" {
		t.Fatalf("empty stream ended with %+v, %v; want an error event", ev, err)
	}

	m := scrapeSeries(t, srv.URL)
	if a, c := m[`sirius_query_latency_seconds_count{kind="answer"}`], m[`sirius_query_latency_seconds_count{kind="action"}`]; a != 2 || c != 1 {
		t.Errorf("latency histograms count %v answers and %v actions, want 2 and 1", a, c)
	}
	errs := map[string]float64{}
	var total float64
	for name, v := range m {
		if reason, ok := strings.CutPrefix(name, `sirius_query_errors_total{reason="`); ok {
			errs[strings.TrimSuffix(reason, `"}`)] = v
			total += v
		}
	}
	if total != 3 || errs["bad_method"] != 1 || errs["bad_json"] != 1 || errs[ev.Reason] != 1 {
		t.Errorf("sirius_query_errors_total %v, want bad_method, bad_json and the stream's %s once each", errs, ev.Reason)
	}
}
