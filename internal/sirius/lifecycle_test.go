package sirius

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sirius/internal/asr"
	"sirius/internal/envelope"
	"sirius/internal/telemetry"
)

// decodeEnvelope asserts the response is a well-formed error envelope
// and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response, raw []byte) envelope.Envelope {
	t.Helper()
	var env envelope.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("not an error envelope: %s (%v)", raw, err)
	}
	if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("request id mismatch: envelope %q header %q", env.RequestID, resp.Header.Get("X-Request-Id"))
	}
	return env
}

// longVoiceQuery synthesizes a many-word utterance so its decode holds
// an admission slot (and blows a millisecond deadline) reliably.
func longVoiceQuery(t *testing.T, p *Pipeline) []float64 {
	t.Helper()
	text := strings.TrimSpace(strings.Repeat("what is the capital of france ", 6))
	samples, err := asr.SynthesizeText(p.Lexicon(), text, 11)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestProcessPropagatesCancellation pins the tentpole contract at the
// library level: a dead context aborts Process before (and during)
// pipeline work instead of being ignored.
func TestProcessPropagatesCancellation(t *testing.T) {
	p := pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Process(ctx, Request{Text: "what is the capital of france"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("text: err %v, want context.Canceled", err)
	}
	if _, err := p.Process(ctx, Request{Samples: longVoiceQuery(t, p)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("voice: err %v, want context.Canceled", err)
	}

	// A QA stage fed a dead context degrades to a truncated partial
	// rather than erroring: the answer marks itself incomplete.
	ans := p.qaEngine.AskContext(ctx, "what is the capital of france")
	if !ans.Truncated {
		t.Fatal("QA under a dead context must mark the answer truncated")
	}
	if ans.DocsSeen != 0 {
		t.Fatalf("QA under a dead context examined %d docs", ans.DocsSeen)
	}
}

// TestServerDeadlineEnvelope drives the full HTTP path: a voice query
// carrying a 1 ms X-Sirius-Timeout-Ms budget must abort before its
// decode does any acoustic scoring and come back as the 503 "timeout"
// envelope, and sirius_query_errors_total{reason="timeout"} must count it.
func TestServerDeadlineEnvelope(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	samples := longVoiceQuery(t, p)

	post := func(timeoutMs string) (*http.Response, []byte) {
		t.Helper()
		body, ctype, err := BuildJSONQuery(samples, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		if timeoutMs != "" {
			req.Header.Set("X-Sirius-Timeout-Ms", timeoutMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}

	// Baseline: the same utterance without a deadline runs to completion.
	resp, raw := post("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline voice query: status %d: %s", resp.StatusCode, raw)
	}

	// The abort must release the core before the decode's work: the 1 ms
	// deadline runs out during feature extraction (tens of ms for this
	// utterance, and not cancellable), so the search's first context
	// check, ahead of scoring the utterance's block, stops the query and
	// the GMM kernel row sees no call. A wall-clock ratio against the full
	// query cannot show this: extraction alone is a third of it.
	scoring := telemetry.DefaultKernels.With("asr", "gmm")
	scoredBefore := scoring.Count()
	resp, raw = post("1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline query: status %d, want 503: %s", resp.StatusCode, raw)
	}
	env := decodeEnvelope(t, resp, raw)
	if env.Code != http.StatusServiceUnavailable || env.Reason != "timeout" {
		t.Fatalf("deadline envelope %+v", env)
	}
	if n := scoring.Count() - scoredBefore; n != 0 {
		t.Fatalf("deadline query scored %d blocks after its deadline — decode did not stop early", n)
	}

	out := metricsBody(t, srv.URL)
	if !strings.Contains(out, `sirius_query_errors_total{reason="timeout"} 1`) {
		t.Fatalf(`/metrics missing sirius_query_errors_total{reason="timeout"} 1`)
	}

	// A server-wide SetTimeout behaves identically with no client header.
	s2 := NewServer(p)
	s2.SetTimeout(time.Millisecond)
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	body, ctype, err := BuildJSONQuery(samples, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv2.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("server -timeout: status %d, want 503: %s", resp2.StatusCode, raw)
	}
	if env := decodeEnvelope(t, resp2, raw); env.Reason != "timeout" {
		t.Fatalf("server -timeout envelope %+v", env)
	}
}

func metricsBody(t *testing.T, url string) string {
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

// TestServerShedsUnderLoad runs the admission gate under real
// concurrency (meaningful under -race): with one slot and a long voice
// query holding it, a probe must be shed with the 429 "overloaded"
// envelope, a Retry-After hint, and the shed counter advancing — and
// once the slot frees, queries are admitted again.
func TestServerShedsUnderLoad(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	s.SetMaxInflight(1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	samples := longVoiceQuery(t, p)

	postProbe := func() (*http.Response, []byte) {
		t.Helper()
		body, ctype, err := BuildJSONQuery(nil, nil, "what is the capital of spain")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}

	shedSeen := false
	for attempt := 0; attempt < 5 && !shedSeen; attempt++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, ctype, err := BuildJSONQuery(samples, nil, "")
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		// Wait until the occupier holds the slot, then probe while it
		// decodes. admitted is the gate's live count.
		deadline := time.Now().Add(5 * time.Second)
		for s.admitted.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if s.admitted.Load() > 0 {
			resp, raw := postProbe()
			if resp.StatusCode == http.StatusTooManyRequests {
				env := decodeEnvelope(t, resp, raw)
				if env.Code != http.StatusTooManyRequests || env.Reason != "overloaded" {
					t.Fatalf("shed envelope %+v", env)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Fatal("429 reply missing Retry-After")
				}
				shedSeen = true
			}
		}
		wg.Wait()
	}
	if !shedSeen {
		t.Fatal("no 429 observed while the admission slot was held")
	}

	// Slot released: the same probe is admitted and served.
	resp, raw := postProbe()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed probe: status %d: %s", resp.StatusCode, raw)
	}
	out := metricsBody(t, srv.URL)
	if !strings.Contains(out, `sirius_query_errors_total{reason="overloaded"} 1`) {
		t.Fatalf(`/metrics missing sirius_query_errors_total{reason="overloaded"} 1`)
	}
	if s.admitted.Load() != 0 {
		t.Fatalf("Inflight %d after all queries finished", s.admitted.Load())
	}
}

// TestServerBodyTooLargeEnvelope pins the request-body cap: an oversized
// upload is rejected with the 413 "body_too_large" envelope instead of
// being buffered whole.
func TestServerBodyTooLargeEnvelope(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	s.maxBody = 2048
	srv := httptest.NewServer(s)
	defer srv.Close()

	// ~40 KB of audio blows the 2 KiB cap.
	body, ctype, err := BuildJSONQuery(make([]float64, 20000), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, raw)
	}
	env := decodeEnvelope(t, resp, raw)
	if env.Code != http.StatusRequestEntityTooLarge || env.Reason != "body_too_large" {
		t.Fatalf("envelope %+v", env)
	}

	// A small request still fits under the tightened cap.
	body, ctype, err = BuildJSONQuery(nil, nil, "what is the capital of france")
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small request under cap: status %d", resp.StatusCode)
	}
}
