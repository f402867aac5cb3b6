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
	"sirius/internal/envelope"
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

// TestV1QueryCompat pins the one front door: /v1/query decodes the body
// as the JSON query whatever its Content-Type says, so the same body
// under another type gets the same reply (latency fields are wall-clock
// and dropped from the comparison); a multipart form is not a JSON query
// and is a 400 bad_json; and the unversioned /query is a 404.
func TestV1QueryCompat(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	jbody, jtype, err := BuildJSONQuery(nil, nil, "what is the capital of france")
	if err != nil {
		t.Fatal(err)
	}
	strip := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad payload %s: %v", raw, err)
		}
		delete(m, "latency")
		return m
	}
	jresp, js := postBody(t, srv.URL, "/v1/query", jbody, jtype)
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("JSON query: status %d: %s", jresp.StatusCode, js)
	}
	for _, ctype := range []string{"text/plain", ""} {
		resp, raw := postBody(t, srv.URL, "/v1/query", jbody, ctype)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("JSON body as %q: status %d: %s", ctype, resp.StatusCode, raw)
		}
		if got, want := strip(raw), strip(js); !reflect.DeepEqual(got, want) {
			t.Fatalf("JSON body as %q answered differently (latency excluded):\n%v\nvs\n%v", ctype, got, want)
		}
	}

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	if err := mw.WriteField("text", "what is the capital of france"); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, raw := postBody(t, srv.URL, "/v1/query", &form, mw.FormDataContentType())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multipart body: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var env envelope.Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Code != http.StatusBadRequest || env.Reason != envelope.ReasonBadJSON {
		t.Fatalf("multipart body: envelope %s (%v), want 400 bad_json", raw, err)
	}

	if resp, raw := postBody(t, srv.URL, "/query", jbody, jtype); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /query: status %d, want 404: %s", resp.StatusCode, raw)
	}
}

// TestErrorEnvelopeShape checks the structured error body on the query
// path: stable reason strings, the HTTP code inside the payload, and a
// request id matching the response header.
func TestErrorEnvelopeShape(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	decode := func(resp *http.Response, raw []byte) envelope.Envelope {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error content type %q", ct)
		}
		var env envelope.Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("not an envelope: %s (%v)", raw, err)
		}
		if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-Id") {
			t.Fatalf("request id mismatch: envelope %q header %q", env.RequestID, resp.Header.Get("X-Request-Id"))
		}
		return env
	}

	// Empty query.
	body, ctype, err := BuildJSONQuery(nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	eresp, raw := postBody(t, srv.URL, "/v1/query", body, ctype)
	if env := decode(eresp, raw); eresp.StatusCode != http.StatusBadRequest || env.Code != http.StatusBadRequest || env.Reason != "empty_query" {
		t.Fatalf("empty query: status %d envelope %+v", eresp.StatusCode, env)
	}

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
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

// wavQuery builds a /v1/query body whose audio is the given WAV bytes
// verbatim (BuildJSONQuery always encodes at 16 kHz, which would defeat a
// resample test).
func wavQuery(t *testing.T, wav []byte) *bytes.Buffer {
	t.Helper()
	body := &bytes.Buffer{}
	if err := json.NewEncoder(body).Encode(jsonQuery{Audio: wav}); err != nil {
		t.Fatal(err)
	}
	return body
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
	resp, raw := postBody(t, srv.URL, "/v1/query", wavQuery(t, wav.Bytes()), "application/json")
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
