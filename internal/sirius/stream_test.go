package sirius

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/envelope"
)

// streamTestAudio synthesizes an utterance long enough for the default
// partial-stability horizon to fire before the audio runs out.
func streamTestAudio(t *testing.T, p *Pipeline, text string) []float64 {
	t.Helper()
	samples, err := asr.SynthesizeText(p.Lexicon(), text, 11)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestStreamEndpointFinalMatchesQuery is the tentpole acceptance check
// at the HTTP layer: the streamed final transcript must be identical to
// the transcript /v1/query produces for the same audio. PCM16 chunks
// and the WAV body quantize identically, so the two paths decode
// bit-identical sample values.
func TestStreamEndpointFinalMatchesQuery(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	samples := streamTestAudio(t, p, "set my alarm for eight")

	body, ct, err := BuildJSONQuery(samples, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/query", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var oneShot Response
	if err := json.NewDecoder(resp.Body).Decode(&oneShot); err != nil {
		t.Fatal(err)
	}
	if oneShot.Transcript == "" {
		t.Fatal("one-shot transcript empty")
	}

	for _, chunk := range []int{1600, 6400} {
		final, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", samples, chunk, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Type != "final" {
			t.Fatalf("chunk=%d: terminal event %+v", chunk, final)
		}
		if final.Text != oneShot.Transcript {
			t.Fatalf("chunk=%d: streamed %q, one-shot %q", chunk, final.Text, oneShot.Transcript)
		}
		if final.Frames <= 0 {
			t.Fatalf("chunk=%d: final missing frame count: %+v", chunk, final)
		}
	}
}

// TestStreamEndpointPartialBeforeFinal: with the default stability
// horizon, at least one partial must arrive before the final, events
// must be sequenced from 0, and the final must be last.
func TestStreamEndpointPartialBeforeFinal(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	samples := streamTestAudio(t, p, "set my alarm for eight")

	var events []StreamEvent
	final, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", samples, 1600, nil, func(ev StreamEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Type != "final" {
		t.Fatalf("terminal event %+v", final)
	}
	if len(events) < 2 {
		t.Fatalf("want at least one partial before the final, got %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i < len(events)-1 && ev.Type != "partial" {
			t.Fatalf("non-partial event %+v before final", ev)
		}
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Text == "" || ev.Frames <= 0 {
			t.Fatalf("malformed partial %+v", ev)
		}
	}
}

// TestStreamEndpointZeroAudio: an immediately-ended stream fails like a
// too-short one-shot recording — a terminal bad_audio error event.
func TestStreamEndpointZeroAudio(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	ev, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", nil, 1600, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != "error" || ev.Reason != "bad_audio" || ev.Code != http.StatusBadRequest {
		t.Fatalf("terminal event %+v, want bad_audio error", ev)
	}
	if ev.RequestID == "" {
		t.Fatal("error event missing request id")
	}
}

// TestStreamEndpointBadChunk: a malformed request line becomes a
// terminal bad_json event, not a dropped connection.
func TestStreamEndpointBadChunk(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/stream", streamContentType, strings.NewReader("{\"pcm\":17}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ev StreamEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "error" || ev.Reason != "bad_json" {
		t.Fatalf("terminal event %+v, want bad_json error", ev)
	}
}

// TestStreamEndpointDeadline: a session that outlives its
// X-Sirius-Timeout-Ms budget ends with a terminal timeout event on the
// open stream (headers are long gone, so no 503 is possible).
func TestStreamEndpointDeadline(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	samples := streamTestAudio(t, p, "call mom")

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", streamContentType)
	req.Header.Set("X-Sirius-Timeout-Ms", "80")
	go func() {
		enc := json.NewEncoder(pw)
		// One chunk, then stall past the deadline without ending the
		// audio — the server must time the session out on its own.
		enc.Encode(StreamChunk{PCM: audio.EncodePCM16(samples[:3200])})
	}()
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer pw.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended without terminal event: %v", err)
		}
		if ev.Type == "partial" {
			continue
		}
		if ev.Type != "error" || ev.Reason != "timeout" || ev.Code != http.StatusServiceUnavailable {
			t.Fatalf("terminal event %+v, want timeout error", ev)
		}
		return
	}
}

// TestStreamEndpointClientDisconnect: a client that vanishes mid-stream
// must not leak the session — the admission slot frees and the reader
// goroutine exits.
func TestStreamEndpointClientDisconnect(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	srv := httptest.NewServer(s)
	defer srv.Close()
	samples := streamTestAudio(t, p, "call mom")

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", streamContentType)
		go func() {
			json.NewEncoder(pw).Encode(StreamChunk{PCM: audio.EncodePCM16(samples[:3200])})
		}()
		resp, err := srv.Client().Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Drop the connection mid-session.
		cancel()
		resp.Body.Close()
		pw.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.admitted.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots leaked: inflight=%d", s.admitted.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Client().CloseIdleConnections()
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+4 {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+4 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestStreamEndpointShed: the stream endpoint sits behind the same
// admission gate as /v1/query — past max-inflight it sheds with a 429
// overloaded envelope before any events flow.
func TestStreamEndpointShed(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	s.SetMaxInflight(1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	samples := streamTestAudio(t, p, "call mom")

	// Hold one session open.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", streamContentType)
	go json.NewEncoder(pw).Encode(StreamChunk{PCM: audio.EncodePCM16(samples[:3200])})
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if _, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", samples, 1600, nil, nil); err == nil {
		t.Fatal("second session admitted past max-inflight=1")
	} else if got := err.Error(); !strings.Contains(got, "overloaded") {
		t.Fatalf("shed error %q does not carry the overloaded reason", got)
	}
	pw.Close()
}

// TestStreamEndpointDrain: flipping readiness off (graceful drain)
// stops new routing via /readyz but lets an open stream finish with its
// final transcript.
func TestStreamEndpointDrain(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	srv := httptest.NewServer(s)
	defer srv.Close()
	samples := streamTestAudio(t, p, "call mom")

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", streamContentType)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Begin draining while the stream is open.
	s.SetReady(false)
	defer s.SetReady(true)
	rz, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d during drain", rz.StatusCode)
	}

	enc := json.NewEncoder(pw)
	for off := 0; off < len(samples); off += 3200 {
		end := off + 3200
		if end > len(samples) {
			end = len(samples)
		}
		if err := enc.Encode(StreamChunk{PCM: audio.EncodePCM16(samples[off:end])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(StreamChunk{End: true}); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	dec := json.NewDecoder(resp.Body)
	var last StreamEvent
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != "final" || last.Text == "" {
		t.Fatalf("drained stream ended with %+v, want final transcript", last)
	}
}

// TestStreamEndpointMethodAndHeaders: non-POST is rejected with the
// standard envelope, and every session carries a request id.
func TestStreamEndpointMethodAndHeaders(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/stream = %d", resp.StatusCode)
	}
	var env envelope.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Reason != "bad_method" || env.RequestID == "" {
		t.Fatalf("envelope %+v", env)
	}
	if resp.Header.Get("X-Request-Id") != env.RequestID {
		t.Fatal("X-Request-Id header does not match envelope")
	}
}

// TestStreamEndpointMetrics: a served session shows up in the stream
// series on /metrics.
func TestStreamEndpointMetrics(t *testing.T) {
	p := pipeline(t)
	s := NewServer(p)
	srv := httptest.NewServer(s)
	defer srv.Close()
	samples := streamTestAudio(t, p, "set my alarm for eight")
	if _, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", samples, 1600, nil, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`sirius_stream_sessions_total{outcome="ok"} 1`,
		"sirius_stream_chunk_seconds_count",
		"sirius_stream_partial_stability_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// lockedBuffer collects an http.Server's ErrorLog; the server logs from
// its connection goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamEndpointEndThenTerminator: a session ended by an "end" line
// still has the body's chunked terminator behind it. The handler must
// not return with that unread on a full-duplex body — net/http then
// panics "invalid concurrent Body.Read call" on the connection
// goroutine, which reaches nobody but the server's ErrorLog, and drops
// the connection. Whether it does depends on when the terminator lands,
// so the test covers both ends: 200 client sessions that send chunk,
// "end" and terminator back to back, then one raw keep-alive connection
// whose sessions each hold the terminator back until the final event has
// arrived, the timing that panicked every time. The log must stay empty.
func TestStreamEndpointEndThenTerminator(t *testing.T) {
	p := pipeline(t)
	var errLog lockedBuffer
	srv := httptest.NewUnstartedServer(NewServer(p))
	srv.Config.ErrorLog = log.New(&errLog, "", 0)
	srv.Start()
	defer srv.Close()
	samples := streamTestAudio(t, p, "call mom")
	for i := 0; i < 200; i++ {
		final, err := StreamSamples(context.Background(), srv.Client(), srv.URL+"/v1/stream", samples, len(samples), nil, nil)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if final.Type != "final" || final.Text == "" {
			t.Fatalf("session %d: terminal event %+v", i, final)
		}
	}

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk, err := json.Marshal(StreamChunk{PCM: audio.EncodePCM16(samples)})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 10; i++ {
		// The same connection serves every session, so one torn down
		// after a session fails the next.
		fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: sirius\r\nTransfer-Encoding: chunked\r\n\r\n")
		for _, line := range []string{string(chunk) + "\n", `{"end":true}` + "\n"} {
			fmt.Fprintf(conn, "%x\r\n%s\r\n", len(line), line)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("raw session %d: %v", i, err)
		}
		dec := json.NewDecoder(resp.Body)
		var ev StreamEvent
		for ev.Type != "final" {
			if err := dec.Decode(&ev); err != nil {
				t.Fatalf("raw session %d: %v before the final event", i, err)
			}
		}
		fmt.Fprintf(conn, "0\r\n\r\n")
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("raw session %d: %v", i, err)
		}
	}

	srv.Close() // connection goroutines have logged what they will
	if logged := errLog.String(); logged != "" {
		t.Fatalf("server ErrorLog not empty:\n%s", logged)
	}
}
