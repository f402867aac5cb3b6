package sirius

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/vision"
)

// TestProcessPathwaySelection pins the Request → pipeline-path mapping
// of the unified API: which fields are set decides the route, and an
// empty request is a typed error.
func TestProcessPathwaySelection(t *testing.T) {
	p := pipeline(t)
	ctx := context.Background()

	if _, err := p.Process(ctx, Request{}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("empty request: err %v, want ErrEmptyQuery", err)
	}

	// Text-only routes through QC: a question answers, a command acts.
	resp, err := p.Process(ctx, Request{Text: "what is the capital of france"})
	if err != nil || resp.Kind != KindAnswer || resp.Answer != "paris" {
		t.Fatalf("text question: %+v, %v", resp, err)
	}
	resp, err = p.Process(ctx, Request{Text: "call mom"})
	if err != nil || resp.Kind != KindAction {
		t.Fatalf("text command: %+v, %v", resp, err)
	}

	// Text+image routes through IMM: the matched entity feeds the answer.
	photo := vision.Warp(vision.GenerateScene("sun cafe", vision.DefaultSceneConfig()), vision.DefaultWarp(9))
	resp, err = p.Process(ctx, Request{Text: "when does this cafe close", Image: photo})
	if err != nil || resp.Latency.IMM <= 0 {
		t.Fatalf("text+image must run IMM: %+v, %v", resp, err)
	}

	// Voice routes through ASR: the transcript is populated. Samples win
	// over Text when both are set — the recording is the query.
	samples, err := asr.SynthesizeText(p.Lexicon(), "what is the capital of france", 77)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = p.Process(ctx, Request{Samples: samples, Text: "ignored"})
	if err != nil || resp.Transcript == "" || resp.Latency.ASR <= 0 {
		t.Fatalf("voice must run ASR: %+v, %v", resp, err)
	}
}

// postBody POSTs a prebuilt body to path and returns status, headers,
// and the raw payload.
func postBody(t *testing.T, url, path string, body *bytes.Buffer, ctype string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, ctype, bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestV1QueryCompat is the golden cross-encoding check: the same query
// answered on /v1/query as multipart form data and as JSON produces the
// same payload. Latency fields are wall-clock and vary run to run, so
// structural equality drops them; the cache-hit path then proves
// byte-identity (same stored response, both encodings). /v1/query is the
// only query route: the unversioned /query is a 404.
func TestV1QueryCompat(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	s.EnableCache(8)
	srv := httptest.NewServer(s)
	defer srv.Close()

	const text = "what is the capital of france"
	mbody, mtype, err := BuildMultipartQuery(nil, nil, text)
	if err != nil {
		t.Fatal(err)
	}
	jbody, jtype, err := BuildJSONQuery(nil, nil, text)
	if err != nil {
		t.Fatal(err)
	}

	// The first request populates the cache (miss), the remaining two hit.
	type shot struct {
		body  *bytes.Buffer
		ctype string
	}
	shots := []shot{{mbody, mtype}, {mbody, mtype}, {jbody, jtype}}
	payloads := make([][]byte, len(shots))
	for i, sh := range shots {
		resp, raw := postBody(t, srv.URL, "/v1/query", sh.body, sh.ctype)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shot %d (%s): status %d: %s", i, sh.ctype, resp.StatusCode, raw)
		}
		wantCache := "hit"
		if i == 0 {
			wantCache = "miss"
		}
		if got := resp.Header.Get("X-Sirius-Cache"); got != wantCache {
			t.Fatalf("shot %d (%s): X-Sirius-Cache %q, want %q", i, sh.ctype, got, wantCache)
		}
		payloads[i] = raw
	}
	for i := 1; i < len(payloads); i++ {
		if !bytes.Equal(payloads[i], payloads[1]) {
			t.Fatalf("cached payloads differ across encodings:\n%s\nvs\n%s", payloads[1], payloads[i])
		}
	}

	// Structural compat without the cache: strip latency, compare.
	s2 := NewServer(p)
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	strip := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad payload %s: %v", raw, err)
		}
		delete(m, "latency")
		return m
	}
	mresp, multi := postBody(t, srv2.URL, "/v1/query", mbody, mtype)
	_, js := postBody(t, srv2.URL, "/v1/query", jbody, jtype)
	if mm, jm := strip(multi), strip(js); !reflect.DeepEqual(mm, jm) {
		t.Fatalf("multipart and JSON bodies disagree (latency excluded):\n%v\nvs\n%v", mm, jm)
	}
	if mresp.Header.Get("X-Sirius-Cache") != "" {
		t.Fatal("X-Sirius-Cache header present with the cache disabled")
	}

	if resp, raw := postBody(t, srv2.URL, "/query", mbody, mtype); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /query: status %d, want 404: %s", resp.StatusCode, raw)
	}
}

// TestQueryCacheCountersAndEviction drives the LRU through hit, miss,
// and eviction and checks the /metrics counters and bound.
func TestQueryCacheCountersAndEviction(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	s.EnableCache(2)
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(text string) *http.Response {
		t.Helper()
		body, ctype, err := BuildMultipartQuery(nil, nil, text)
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postBody(t, srv.URL, "/v1/query", body, ctype)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", text, resp.StatusCode, raw)
		}
		return resp
	}
	post("what is the capital of france")
	// Normalized variants share one slot.
	if got := post("  What is the capital of FRANCE? ").Header.Get("X-Sirius-Cache"); got != "hit" {
		t.Fatalf("normalized variant: X-Sirius-Cache %q, want hit", got)
	}
	post("what is the capital of spain")
	if got := s.CacheLen(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	post("what is the speed of light") // evicts france (LRU)
	if got := s.CacheLen(); got != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", got)
	}
	if got := post("what is the capital of france").Header.Get("X-Sirius-Cache"); got != "miss" {
		t.Fatalf("evicted entry: X-Sirius-Cache %q, want miss", got)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(raw)
	for _, want := range []string{
		"sirius_cache_hits_total 1",
		"sirius_cache_misses_total 4",
		"sirius_cache_evictions_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestErrorEnvelopeShape checks the structured error body on the query
// path: stable reason strings, the HTTP code inside the payload, and a
// request id matching the response header.
func TestErrorEnvelopeShape(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	decode := func(resp *http.Response, raw []byte) ErrorEnvelope {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error content type %q", ct)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("not an envelope: %s (%v)", raw, err)
		}
		if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-Id") {
			t.Fatalf("request id mismatch: envelope %q header %q", env.RequestID, resp.Header.Get("X-Request-Id"))
		}
		return env
	}

	// Empty query, both encodings.
	for _, enc := range []struct {
		build func([]float64, *vision.Image, string) (*bytes.Buffer, string, error)
	}{{BuildMultipartQuery}, {BuildJSONQuery}} {
		body, ctype, err := enc.build(nil, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postBody(t, srv.URL, "/v1/query", body, ctype)
		env := decode(resp, raw)
		if resp.StatusCode != http.StatusBadRequest || env.Code != http.StatusBadRequest || env.Reason != "empty_query" {
			t.Fatalf("empty query (%s): status %d envelope %+v", ctype, resp.StatusCode, env)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if env := decode(resp, raw); resp.StatusCode != http.StatusBadRequest || env.Reason != "bad_json" {
		t.Fatalf("bad json: status %d envelope %+v", resp.StatusCode, env)
	}

	// Garbage audio bytes inside valid JSON.
	resp, err = http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"audio":"bm90IGEgd2F2IGZpbGU="}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if env := decode(resp, raw); env.Reason != "bad_audio" {
		t.Fatalf("garbage audio: envelope %+v", env)
	}

	// Wrong method.
	gresp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if env := decode(gresp, raw); gresp.StatusCode != http.StatusMethodNotAllowed || env.Reason != "bad_method" {
		t.Fatalf("GET: status %d envelope %+v", gresp.StatusCode, env)
	}
}

// newMultipartWAV writes a multipart body whose "audio" part carries
// the given WAV bytes verbatim (BuildMultipartQuery always encodes at
// 16 kHz, which would defeat a resample test) and returns the content
// type.
func newMultipartWAV(t *testing.T, body *bytes.Buffer, wav []byte) string {
	t.Helper()
	mw := multipart.NewWriter(body)
	fw, err := mw.CreateFormFile("audio", "query.wav")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(wav); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType()
}

// TestNon16kAudioResampled exercises the resample branch: an 8 kHz
// upload must be accepted and recognized, not rejected or fed to the
// front end at the wrong rate.
func TestNon16kAudioResampled(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	samples, err := asr.SynthesizeText(p.Lexicon(), "what is the capital of france", 31)
	if err != nil {
		t.Fatal(err)
	}
	low := audio.Resample(samples, 16000, 8000)

	var wav bytes.Buffer
	if err := audio.WriteWAV(&wav, low, 8000); err != nil {
		t.Fatal(err)
	}
	body := &bytes.Buffer{}
	mw := newMultipartWAV(t, body, wav.Bytes())
	resp, raw := postBody(t, srv.URL, "/v1/query", body, mw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("8 kHz upload: status %d: %s", resp.StatusCode, raw)
	}
	var got Response
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Transcript == "" {
		t.Fatalf("8 kHz upload produced no transcript: %+v", got)
	}
}
