package sirius

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sirius/internal/asr"
	"sirius/internal/envelope"
)

// TestServerPrecisionRoundTrip drives a voice query through POST
// /v1/query on a DNN pipeline, the engine with an int8 kernel, at both
// precisions: the int8 reply must be labeled precision:"int8", decode to
// the same transcript as fp64, and show up under
// sirius_query_precision_total{precision="int8"} on /metrics.
func TestServerPrecisionRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = asr.EngineDNN
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	samples, err := asr.SynthesizeText(p.Lexicon(), "call mom", 55)
	if err != nil {
		t.Fatal(err)
	}
	post := func(prec string) Response {
		t.Helper()
		body, ctype, err := BuildJSONQueryPrecision(samples, nil, "", prec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("precision %q: status %d; body %s", prec, resp.StatusCode, payload)
		}
		var r Response
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatalf("precision %q: bad body %q: %v", prec, payload, err)
		}
		return r
	}

	fp := post("fp64")
	q8 := post("int8")
	if fp.Precision != "fp64" || q8.Precision != "int8" {
		t.Fatalf("precision labels: fp64 request says %q, int8 request says %q", fp.Precision, q8.Precision)
	}
	if fp.Transcript == "" || fp.Transcript != q8.Transcript {
		t.Fatalf("int8 transcript %q diverged from fp64 %q", q8.Transcript, fp.Transcript)
	}

	// A request naming no precision must also be labeled (with fp64).
	def := post("")
	if def.Precision != "fp64" {
		t.Fatalf("default request labeled %q, want fp64", def.Precision)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`sirius_query_precision_total{precision="int8"} 1`,
		`sirius_query_precision_total{precision="fp64"} 2`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerBadPrecisionRejected pins the validation contract: a
// precision the pipeline cannot score is a 400 bad_precision envelope,
// whether it is unknown (rejected when the body is parsed) or int8 on a
// GMM pipeline, whose bank has no int8 kernel (rejected by Process with
// errBadPrecision before any audio is scored).
func TestServerBadPrecisionRejected(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	samples, err := asr.SynthesizeText(p.Lexicon(), "call mom", 55)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), Request{Samples: samples, Precision: "int8"}); !errors.Is(err, errBadPrecision) {
		t.Fatalf("GMM pipeline, int8 voice query: err %v, want ErrBadPrecision", err)
	}

	for _, tc := range []struct {
		name    string
		samples []float64
		text    string
		prec    string
	}{
		{"unknown precision", nil, "call mom", "fp32"},
		{"int8 on the GMM engine", samples, "", "int8"},
	} {
		body, ctype, err := BuildJSONQueryPrecision(tc.samples, nil, tc.text, tc.prec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body %s", tc.name, resp.StatusCode, payload)
		}
		var env envelope.Envelope
		if err := json.Unmarshal(payload, &env); err != nil {
			t.Fatalf("%s: not an error envelope %q: %v", tc.name, payload, err)
		}
		if env.Code != http.StatusBadRequest || env.Reason != "bad_precision" {
			t.Fatalf("%s: envelope %+v, want 400 bad_precision", tc.name, env)
		}
	}
}
