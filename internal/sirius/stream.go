package sirius

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/envelope"
	"sirius/internal/telemetry"
)

// POST /v1/stream is the incremental voice front-end: the client sends
// newline-delimited JSON chunks of raw 16-bit PCM audio and reads back
// a newline-delimited JSON event stream of stabilized partial
// transcripts followed by one terminal event — a final transcript
// bit-identical to what /v1/query would have produced for the same
// audio, or an error event reusing the structured-envelope vocabulary.
//
// Request lines ("end" marks end of audio; closing the body works too):
//
//	{"pcm":"<base64 16-bit LE mono PCM, 16 kHz>"}
//	{"end":true}
//
// Response lines:
//
//	{"type":"partial","text":"call","frames":62,"seq":0}
//	{"type":"final","text":"call time","frames":118,"seq":1}
//	{"type":"error","reason":"timeout","code":503,...,"seq":1}

// StreamChunk is one request line on a /v1/stream session.
type StreamChunk struct {
	PCM []byte `json:"pcm,omitempty"` // raw 16-bit LE mono PCM, base64 in JSON
	End bool   `json:"end,omitempty"` // end of audio: decode what remains and finish
}

// StreamEvent is one response line on a /v1/stream session. Type is
// "partial", "final", or "error"; Seq numbers events from 0 so a client
// can detect a truncated stream. Error events embed the same
// {code, reason, request_id, message} body every other Sirius surface
// returns (see internal/envelope).
type StreamEvent struct {
	Type   string `json:"type"`
	Text   string `json:"text,omitempty"`
	Frames int    `json:"frames,omitempty"`
	Seq    int    `json:"seq"`

	Code      int    `json:"code,omitempty"`
	Reason    string `json:"reason,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Message   string `json:"message,omitempty"`
}

// streamContentType is the wire format both directions: one JSON
// document per line.
const streamContentType = "application/x-ndjson"

// streamErrorEvent builds a terminal error event from the shared
// envelope vocabulary.
func streamErrorEvent(reason, requestID, msg string) StreamEvent {
	env := envelope.New(reason, requestID, msg)
	return StreamEvent{
		Type:      "error",
		Code:      env.Code,
		Reason:    env.Reason,
		RequestID: env.RequestID,
		Message:   env.Message,
	}
}

// handleStream serves POST /v1/stream. The whole session holds one
// admission slot — a stream is a query that happens to arrive in
// pieces, so it competes with one-shot queries for the same gate — and
// runs under one trace with a span per audio chunk. Failures before the
// event stream starts use the normal HTTP error envelope; once the 200
// header is out, failures become terminal error events carrying the
// same reason vocabulary.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// The deadline bounds the whole session; one that outlives it ends
	// with a terminal "timeout" event. Unlike /v1/query the finished span
	// tree cannot ride back in a response header — headers are long gone
	// by the time the session ends — so remote callers get the root
	// linkage (shared trace id) but collect the server-side spans from
	// /debug/traces.
	c, ok := s.begin(w, r, "stream")
	if !ok {
		return
	}
	defer c.end()
	ctx, reqID := c.ctx, c.id

	st, err := s.pipeline.NewStream(ctx, asr.StreamConfig{})
	if err != nil {
		s.streamSessions.With("error").Inc()
		s.queryError(w, envelope.ReasonPipeline, reqID, err.Error())
		return
	}

	// The session interleaves request-body reads (audio chunks) with
	// response writes (events); Go's HTTP/1 server is half-duplex by
	// default and would close the body at the first flush.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		s.streamSessions.With("error").Inc()
		s.queryError(w, envelope.ReasonPipeline, reqID, "full-duplex unsupported: "+err.Error())
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", streamContentType)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	seq := 0
	emit := func(ev StreamEvent) {
		ev.Seq = seq
		seq++
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// terminal records the session outcome: metrics, the error counter
	// (terminal error events share the reason labels with /v1/query
	// failures), and the last event on the wire.
	terminal := func(outcome, reason, msg string) {
		s.streamSessions.With(outcome).Inc()
		s.errors.With(reason).Inc()
		emit(streamErrorEvent(reason, reqID, msg))
	}

	// The reader goroutine owns the request body: it decodes chunk
	// lines and hands decoded samples over an unbuffered channel so
	// decode work happens on the handler goroutine under the trace. It
	// closes lines only at the end of the audio: a bad chunk goes to
	// errc alone, since select picks at random between a filed error
	// and a closed channel. It selects on ctx.Done so a handler that
	// returns early (deadline, client gone) never strands it.
	type chunkMsg struct {
		samples []float64
	}
	lines := make(chan chunkMsg)
	errc := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(r.Body)
		for {
			var c StreamChunk
			if err := dec.Decode(&c); err != nil {
				if errors.Is(err, io.EOF) {
					close(lines)
				} else {
					errc <- err
				}
				return
			}
			if c.End {
				close(lines)
				return
			}
			samples, err := audio.DecodePCM16(c.PCM)
			if err != nil {
				errc <- err
				return
			}
			select {
			case lines <- chunkMsg{samples: samples}:
			case <-ctx.Done():
				return
			}
		}
	}()

	for {
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				terminal("timeout", "timeout", "stream deadline exceeded")
			} else {
				terminal("canceled", "canceled", "stream canceled")
			}
			return
		case err := <-errc:
			reason := "bad_json"
			if bodyTooLarge(err) {
				reason = "body_too_large"
			} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Body read died with the context; report the deadline,
				// not a malformed chunk.
				continue
			}
			terminal("error", reason, "bad chunk: "+err.Error())
			return
		case msg, ok := <-lines:
			if !ok {
				// End of audio: flush the tail and decide the transcript.
				res, err := st.Finish()
				switch {
				case err == nil:
					s.streamSessions.With("ok").Inc()
					emit(StreamEvent{Type: "final", Text: res.Text, Frames: res.Timings.Frames})
				case errors.Is(err, context.DeadlineExceeded):
					terminal("timeout", "timeout", "stream deadline exceeded")
				case errors.Is(err, context.Canceled):
					terminal("canceled", "canceled", "stream canceled")
				default:
					terminal("error", "bad_audio", err.Error())
				}
				drainStreamBody(w, r.Body)
				return
			}
			chunkStart := time.Now()
			_, sp := telemetry.StartSpan(ctx, "chunk")
			p, err := st.Push(msg.samples)
			sp.End()
			s.streamChunkLat.Observe(time.Since(chunkStart))
			if err != nil {
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					terminal("timeout", "timeout", "stream deadline exceeded")
				case errors.Is(err, context.Canceled):
					terminal("canceled", "canceled", "stream canceled")
				default:
					terminal("error", "pipeline", err.Error())
				}
				return
			}
			if p != nil {
				// Stability horizon in wall time: frames arrive on the
				// 10 ms hop, so StableFor frames ≡ StableFor·10 ms.
				s.streamStability.Observe(time.Duration(p.StableFor) * 10 * time.Millisecond)
				emit(StreamEvent{Type: "partial", Text: p.Text, Frames: p.Frames})
			}
		}
	}
}

// What drainStreamBody will read, and how long it will wait, for the end
// of a request body whose last chunk line has been handled.
const (
	streamDrainLimit = 64 << 10
	streamDrainWait  = 250 * time.Millisecond
)

// drainStreamBody reads the request body to its end after the session's
// last event is out and the reader goroutine is done with it. An "end"
// line leaves at least the chunked terminator unread, and net/http must
// see a full-duplex body reach EOF before the handler returns: when it
// first reaches it while closing the body afterwards, the connection's
// next read panics "invalid concurrent Body.Read call" and the
// connection is torn down under whoever is relaying it. A client that
// keeps the body open after "end" is waited for briefly, then dropped.
func drainStreamBody(w http.ResponseWriter, body io.Reader) {
	if err := http.NewResponseController(w).SetReadDeadline(time.Now().Add(streamDrainWait)); err != nil {
		return // no deadline to bound the wait: leave the body to net/http
	}
	_, _ = io.CopyN(io.Discard, body, streamDrainLimit)
}

// StreamSamples drives one /v1/stream session as a client: it POSTs the
// samples in chunks of chunkSize (as base64 PCM16 lines), invokes
// onEvent for every event received (may be nil), and returns the
// terminal event — type "final" on success, "error" if the server ended
// the session with a failure. A non-nil error means the transport or
// the wire format broke, including non-200 responses (the decoded
// envelope's reason is in the error text). Loadgen, clustersmoke, and
// the tests all speak the protocol through this one helper.
func StreamSamples(ctx context.Context, hc *http.Client, url string, samples []float64, chunkSize int, header http.Header, onEvent func(StreamEvent)) (StreamEvent, error) {
	if chunkSize <= 0 {
		chunkSize = 3200
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		pw.Close()
		return StreamEvent{}, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set("Content-Type", streamContentType)

	// Feed chunks concurrently with reading events; if the server ends
	// the session early the pipe write fails and the writer stops.
	go func() {
		enc := json.NewEncoder(pw)
		for off := 0; off < len(samples); off += chunkSize {
			end := off + chunkSize
			if end > len(samples) {
				end = len(samples)
			}
			if err := enc.Encode(StreamChunk{PCM: audio.EncodePCM16(samples[off:end])}); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if err := enc.Encode(StreamChunk{End: true}); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Close()
	}()

	resp, err := hc.Do(req)
	if err != nil {
		return StreamEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env envelope.Envelope
		if jerr := json.NewDecoder(resp.Body).Decode(&env); jerr == nil && env.Reason != "" {
			return StreamEvent{}, fmt.Errorf("stream rejected: %d %s: %s", env.Code, env.Reason, env.Message)
		}
		return StreamEvent{}, fmt.Errorf("stream rejected: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var last StreamEvent
	seen := false
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return StreamEvent{}, err
		}
		seen = true
		last = ev
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Type == "final" || ev.Type == "error" {
			// Drain to EOF before returning so intermediaries (the
			// cluster frontend relays this body) observe a clean
			// backend close instead of a client cancelation racing it.
			// The terminal event is the last line, so this is instant.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev, nil
		}
	}
	if !seen {
		return StreamEvent{}, errors.New("stream ended with no events")
	}
	return last, errors.New("stream ended without a terminal event")
}
