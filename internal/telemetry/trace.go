package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation inside a trace. Offsets are relative to
// the trace start, so a dumped trace reads as a waterfall: request →
// asr → {feature, scoring, search}, qa → {stem, regex, crf, retrieval},
// imm → {fe, fd, search}.
type Span struct {
	ID       string        `json:"id,omitempty"`
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
	Remote   bool          `json:"remote,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	start time.Time
	trace *Trace
}

// Trace is one request's span tree plus identity. Build it while the
// request runs, Finish it, then read it (JSON dump, ring buffer). A
// hedge loser's span may still End or Graft after Finish, so readers
// serialize through MarshalJSON/EncodeSpans, which take the trace lock.
type Trace struct {
	ID           string    `json:"id"`
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Time         time.Time `json:"time"`
	Root         *Span     `json:"root"`

	mu sync.Mutex
}

// MarshalJSON serializes the trace under its lock, so a dump racing a
// late span End/Graft (a hedge loser finishing after the winner was
// returned) is still well-formed.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type alias Trace
	return json.Marshal((*alias)(t))
}

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	requestIDCtxKey
)

// Request IDs: a per-process random prefix plus a sequence number, so
// IDs are unique across restarts but still cheap and sortable in logs.
var (
	idPrefix string
	idSeq    atomic.Uint64
)

func init() {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		copy(b[:], "srus")
	}
	idPrefix = hex.EncodeToString(b[:])
}

// NewRequestID mints a process-unique request ID.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06x", idPrefix, idSeq.Add(1))
}

var spanSeq atomic.Uint64

// newSpanID mints a process-unique span ID — the identity a child tier
// hangs its trace under when the span context crosses the wire.
func newSpanID() string {
	return fmt.Sprintf("%s.%05x", idPrefix, spanSeq.Add(1))
}

// ContextWithRequestID attaches a request ID (e.g. minted by the access
// log middleware) so StartTrace reuses it as the trace ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey, id)
}

// RequestIDFromContext returns the attached request ID, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey).(string)
	return id
}

// StartTrace opens a new trace with a root span of the given name and
// returns a context carrying it. The trace ID reuses the context's
// request ID when present.
func StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	id := RequestIDFromContext(ctx)
	if id == "" {
		id = NewRequestID()
	}
	now := time.Now()
	t := &Trace{ID: id, Time: now}
	t.Root = &Span{ID: newSpanID(), Name: name, start: now, trace: t}
	ctx = context.WithValue(ctx, spanCtxKey, t.Root)
	return ctx, t
}

// spanFromContext returns the current span, or nil.
func spanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}

// Finish closes the root span (fixing the trace's total duration).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// StartSpan opens a child of the context's current span and returns a
// context in which it is current. With no trace in ctx it returns a nil
// span, whose methods all no-op — callers instrument unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{ID: newSpanID(), Name: name, start: time.Now(), trace: parent.trace}
	s.Offset = s.start.Sub(parent.trace.Time)
	parent.trace.mu.Lock()
	parent.Children = append(parent.Children, s)
	parent.trace.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey, s), s
}

// End closes the span. Safe on nil and idempotent (the first call
// wins), so callers may End explicitly — to Graft a remote tree under a
// fixed duration, say — with a deferred End still in place.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if s.trace == nil {
		if s.Duration == 0 {
			s.Duration = d
		}
		return
	}
	s.trace.mu.Lock()
	if s.Duration == 0 {
		s.Duration = d
	}
	s.trace.mu.Unlock()
}

// AddTimed attaches an already-measured child span of known duration —
// how pre-existing component timers (ASR feature/scoring/search etc.)
// surface in the trace without re-instrumenting their internals. The
// child is laid out ending where the parent currently is.
func (s *Span) AddTimed(name string, d time.Duration) {
	if s == nil || d < 0 {
		return
	}
	offset := time.Since(s.trace.Time) - d
	if offset < s.Offset {
		offset = s.Offset
	}
	child := &Span{Name: name, Offset: offset, Duration: d, trace: s.trace}
	s.trace.mu.Lock()
	s.Children = append(s.Children, child)
	s.trace.mu.Unlock()
}

// TraceLog is a fixed-capacity ring buffer of recent finished traces,
// served at /debug/traces so an operator can inspect the last N
// requests' waterfalls without external infrastructure.
type TraceLog struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	full bool
}

// NewTraceLog returns a ring buffer holding the last capacity traces.
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Trace, capacity)}
}

// get returns the buffered trace with the given ID (request ID), or nil.
func (l *TraceLog) get(id string) *Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range l.buf {
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// Add records a finished trace, evicting the oldest when full.
func (l *TraceLog) Add(t *Trace) {
	if t == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = t
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// snapshot returns the buffered traces, newest first.
func (l *TraceLog) snapshot() []*Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// handler serves the buffer as a JSON array (mount at /debug/traces).
// With ?id=<request-id> it serves that single trace, or 404 when the
// id is absent (expired from the ring or never seen).
func (l *TraceLog) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := func(v any) {
			w.Header().Set("Content-Type", "application/json")
			e := json.NewEncoder(w)
			e.SetIndent("", "  ")
			_ = e.Encode(v)
		}
		if id := r.URL.Query().Get("id"); id != "" {
			t := l.get(id)
			if t == nil {
				http.Error(w, "trace not found: "+id, http.StatusNotFound)
				return
			}
			enc(t)
			return
		}
		enc(l.snapshot())
	})
}

// Waterfall renders the trace as an indented text timeline — one line
// per span with its offset and duration, remote (grafted) spans marked
// — the shape loadgen's slow-trace report prints.
func (t *Trace) Waterfall() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  started %s\n", t.ID, t.Time.Format(time.RFC3339Nano))
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		mark := ""
		if s.Remote {
			mark = "  [remote]"
		}
		fmt.Fprintf(&b, "  %*s%-30s @%-11v %v%s\n", depth*2, "", s.Name,
			s.Offset.Round(time.Microsecond), s.Duration.Round(time.Microsecond), mark)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 0)
	}
	return b.String()
}
