package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Cross-tier trace propagation. The frontend sends the span context of
// the attempt span alongside X-Request-Id; the backend roots its trace
// under that context and returns its finished span tree in a response
// header; the frontend grafts the tree into the attempt span. Stitching
// is anchored on the parent span's own offsets — never on the two
// processes' wall clocks — so clock skew cannot produce negative or
// non-monotonic offsets in the combined waterfall.

const (
	// traceHeader carries the serialized SpanContext on a request:
	//   X-Sirius-Trace: <trace-id>:<parent-span-id>:<sampled>
	traceHeader = "X-Sirius-Trace"

	// TraceSpansHeader carries the child tier's serialized span tree on
	// the response, when the request was sampled and the tree is small
	// enough for a header (maxSpanHeaderBytes).
	TraceSpansHeader = "X-Sirius-Trace-Spans"
)

// maxSpanHeaderBytes caps the serialized span tree a server will put in
// a response header; larger trees are dropped (the trace is still
// available from the server's own /debug/traces?id=).
const maxSpanHeaderBytes = 32 << 10

// SpanContext is the wire identity of a span: enough for a child tier
// to root its trace under the caller's span.
type SpanContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// String serializes the context for the traceHeader. Fields are joined
// with ':' (request and span IDs never contain it).
func (sc SpanContext) String() string {
	s := "0"
	if sc.Sampled {
		s = "1"
	}
	return sc.TraceID + ":" + sc.SpanID + ":" + s
}

// parseSpanContext parses a traceHeader value.
func parseSpanContext(v string) (SpanContext, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return SpanContext{}, fmt.Errorf("telemetry: malformed span context %q", v)
	}
	return SpanContext{TraceID: parts[0], SpanID: parts[1], Sampled: parts[2] == "1"}, nil
}

// InjectTraceContext writes the context's current span (if any) into
// h as a traceHeader. Requests outside a trace carry no header.
func InjectTraceContext(h http.Header, ctx context.Context) {
	sp := spanFromContext(ctx)
	if sp == nil || sp.trace == nil || sp.ID == "" {
		return
	}
	h.Set(traceHeader, SpanContext{TraceID: sp.trace.ID, SpanID: sp.ID, Sampled: true}.String())
}

// ExtractTraceContext reads a traceHeader from h; ok is false when the
// header is absent or malformed (the server then roots a local trace).
func ExtractTraceContext(h http.Header) (sc SpanContext, ok bool) {
	v := h.Get(traceHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := parseSpanContext(v)
	return sc, err == nil
}

// StartTraceRemote opens a trace rooted under a caller's span context:
// the trace adopts the caller's trace ID (so both tiers' logs, traces
// and exemplars join on one key) and records the parent span ID the
// serialized tree should be grafted under.
func StartTraceRemote(ctx context.Context, name string, sc SpanContext) (context.Context, *Trace) {
	ctx, t := StartTrace(ContextWithRequestID(ctx, sc.TraceID), name)
	t.ParentSpanID = sc.SpanID
	return ctx, t
}

// EncodeSpans serializes the trace's span tree as compact JSON, the
// TraceSpansHeader payload. Returns "" when the tree exceeds
// maxSpanHeaderBytes.
func (t *Trace) EncodeSpans() string {
	if t == nil || t.Root == nil {
		return ""
	}
	t.mu.Lock()
	b, err := json.Marshal(t.Root)
	t.mu.Unlock()
	if err != nil || len(b) > maxSpanHeaderBytes {
		return ""
	}
	return string(b)
}

// DecodeSpans parses a span tree produced by EncodeSpans.
func DecodeSpans(s string) (*Span, error) {
	sp := &Span{}
	if err := json.Unmarshal([]byte(s), sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// Graft attaches a remote span tree under s, re-anchoring its offsets
// into s's trace. The remote tree's offsets are relative to the remote
// trace start; Graft shifts them so the remote root sits inside s —
// centered in the slack between s's duration and the remote root's —
// and clamps every offset to be monotonically non-decreasing down the
// tree and never before s itself. Wall clocks never enter the math, so
// cross-host clock skew cannot produce negative offsets. Call after
// s.End() (End is first-call-wins, so a deferred End stays harmless).
func (s *Span) Graft(remote *Span) {
	if s == nil || remote == nil {
		return
	}
	t := s.trace
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	parentOff, parentDur := s.Offset, s.Duration
	if parentDur == 0 && !s.start.IsZero() {
		parentDur = time.Since(s.start)
	}
	slack := parentDur - remote.Duration
	if slack < 0 {
		slack = 0
	}
	shift := parentOff + slack/2 - remote.Offset
	var walk func(sp *Span, floor time.Duration)
	walk = func(sp *Span, floor time.Duration) {
		sp.Remote = true
		sp.trace = t
		sp.Offset += shift
		if sp.Offset < floor {
			sp.Offset = floor
		}
		for _, c := range sp.Children {
			walk(c, sp.Offset)
		}
	}
	walk(remote, parentOff)
	s.Children = append(s.Children, remote)
}
