package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The HTTP ones are recorded by the benchmark's own handler
// wrappers at each tier boundary; the stage ones are hung under the
// backend span from the latency object in the reply.
const (
	spanClient   = "client"
	spanFrontend = "cluster.frontend"
	spanBackend  = "sirius.server"
	spanLeaf     = "shard.leaf"
	spanProcess  = "sirius.process"
)

// span is one timed interval of one request. Start and End are
// nanoseconds since the tracer was created; spans of one request share
// Req (the X-Request-Id the tiers already propagate).
type span struct {
	Req      string `json:"req"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	BytesIn  int64  `json:"bytes_in,omitempty"`
	BytesOut int64  `json:"bytes_out,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.all()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slot mounts one tier's http.Handler so that the traced phase can put
// a span-recording wrapper around it without rebooting the tier; with
// no tracer set it costs one atomic load per request.
type slot struct {
	name   string // span name recorded for this tier
	parent string
	h      http.Handler
	tr     atomic.Pointer[tracer]
}

func (s *slot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	sp := span{Req: r.Header.Get("X-Request-Id"), Name: s.name, Parent: s.parent, Start: tr.now()}
	s.h.ServeHTTP(cw, r)
	sp.End = tr.now()
	sp.BytesIn, sp.BytesOut = body.n.Load(), cw.n
	tr.add(sp)
}

// countingBody counts request bytes; the stream handler reads the body
// from a second goroutine, hence the atomic.
type countingBody struct {
	io.ReadCloser
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingWriter counts response bytes and stays transparent to the
// stream handlers: Flush is forwarded and Unwrap lets
// http.ResponseController reach EnableFullDuplex.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap one another (four leaves answering in
// parallel) and may stick out of the parent (clock reads on different
// goroutines); the union is clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// ledgerRow is one layer's self time summed over the traced requests.
type ledgerRow struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share_of_client"`
}

// ledger attributes every client span's time to the layer that spent
// it: each span's self time goes to its own name, so the rows of one
// request add up to its client span.
func ledger(spans []span) []ledgerRow {
	byReq := map[string][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	var clientTotal time.Duration
	for _, req := range byReq {
		for _, s := range req {
			var children []span
			for _, c := range req {
				if c.Parent == s.Name {
					children = append(children, c)
				}
			}
			self[s.Name] += selfTime(s, children)
			count[s.Name]++
			if s.Name == spanClient {
				clientTotal += s.dur()
			}
		}
	}
	rows := make([]ledgerRow, 0, len(self))
	for name, d := range self {
		row := ledgerRow{Layer: name, Spans: count[name], SelfS: d.Seconds()}
		if clientTotal > 0 {
			row.Share = float64(d) / float64(clientTotal)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows
}
