package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketLayout(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != numBuckets {
		t.Fatalf("bounds %d", len(bounds))
	}
	if bounds[0] != time.Microsecond {
		t.Fatalf("first bound %v", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		ratio := float64(bounds[i]) / float64(bounds[i-1])
		if ratio < 1.40 || ratio > 1.43 {
			t.Fatalf("bucket %d growth %.3f, want ~sqrt(2)", i, ratio)
		}
	}
	// The layout must cover the serving range: sub-ms to minutes.
	if last := bounds[len(bounds)-1]; last < 10*time.Minute {
		t.Fatalf("last bound %v too small", last)
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Summarize().Mean != 0 || h.maxObserved() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Sum() != 9*time.Millisecond {
		t.Fatalf("sum %v", h.Sum())
	}
	if m := h.Summarize().Mean; m != 3*time.Millisecond {
		t.Fatalf("mean %v", m)
	}
	if h.maxObserved() != 5*time.Millisecond {
		t.Fatalf("max %v", h.maxObserved())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform samples over [1ms, 1001ms]: each estimated quantile must
	// land within one bucket factor (sqrt 2) of the exact value.
	h := &Histogram{}
	rng := rand.New(rand.NewSource(7))
	n := 20000
	for i := 0; i < n; i++ {
		h.Observe(time.Millisecond + time.Duration(rng.Int63n(int64(time.Second))))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := time.Duration(q * float64(time.Second))
		got := h.Quantile(q)
		lo := time.Duration(float64(exact) / 1.45)
		hi := time.Duration(float64(exact) * 1.45)
		if got < lo || got > hi {
			t.Errorf("q%.3f: got %v, want within [%v, %v]", q, got, lo, hi)
		}
	}
	s := h.Summarize()
	if !(s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	if s.Count != uint64(n) {
		t.Fatalf("count %d", s.Count)
	}
}

func TestHistogramQuantileClampedToMax(t *testing.T) {
	h := &Histogram{}
	h.Observe(10 * time.Millisecond)
	for _, q := range []float64{0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got > 10*time.Millisecond {
			t.Fatalf("q%v = %v exceeds the observed max", q, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Hammer Observe from many goroutines while scraping summaries; run
	// under -race to validate the lock-free recording path.
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, perWorker = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.Summarize()
				h.Quantile(0.99)
			}
		}
	}()
	wg.Wait()
	close(done)
	if h.Count() != workers*perWorker {
		t.Fatalf("count %d", h.Count())
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_total", "A counter.")
	c.Add(3)
	g := reg.NewGauge("test_inflight", "A gauge.")
	g.Set(1)
	cv := reg.NewCounterVec("test_queries_total", "Labeled counter.", "kind")
	cv.With("answer").Inc()
	cv.With("answer").Inc()
	cv.With("action").Inc()
	cv.With(`we"ird\label`).Inc()
	hv := reg.NewHistogramVec("test_latency_seconds", "Labeled histogram.", "stage")
	hv.With("asr").Observe(3 * time.Millisecond)
	hv.With("asr").Observe(40 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_inflight gauge",
		"test_inflight 1",
		`test_queries_total{kind="action"} 1`,
		`test_queries_total{kind="answer"} 2`,
		`test_queries_total{kind="we\"ird\\label"} 1`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{stage="asr",le="+Inf"} 2`,
		`test_latency_seconds_count{stage="asr"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Histogram bucket counts must be cumulative and end at the count.
	var prev uint64
	sc := bufio.NewScanner(strings.NewReader(out))
	buckets := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		buckets++
		v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
	if buckets != numBuckets+1 {
		t.Fatalf("%d bucket lines, want %d", buckets, numBuckets+1)
	}
	if prev != 2 {
		t.Fatalf("+Inf bucket %d, want 2", prev)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	reg.NewGauge("dup_total", "y")
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("h_total", "x").Inc()
	srv := httptest.NewServer(reg.handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "h_total 1") {
		t.Fatalf("body %q", buf.String())
	}
}

func TestTraceSpans(t *testing.T) {
	ctx := ContextWithRequestID(context.Background(), "req-1")
	ctx, tr := StartTrace(ctx, "query")
	if tr.ID != "req-1" {
		t.Fatalf("trace ID %q, want the context request ID", tr.ID)
	}
	actx, asr := StartSpan(ctx, "asr")
	_, inner := StartSpan(actx, "scoring")
	time.Sleep(time.Millisecond)
	inner.End()
	asr.End()
	_, qa := StartSpan(ctx, "qa")
	qa.End()
	qa.AddTimed("retrieval", 500*time.Microsecond)
	tr.Finish()

	if tr.Root.Duration < time.Millisecond {
		t.Fatalf("trace duration %v", tr.Root.Duration)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root children %d", len(tr.Root.Children))
	}
	if tr.Root.Children[0].Name != "asr" || tr.Root.Children[1].Name != "qa" {
		t.Fatalf("children %v %v", tr.Root.Children[0].Name, tr.Root.Children[1].Name)
	}
	if len(tr.Root.Children[0].Children) != 1 || tr.Root.Children[0].Children[0].Name != "scoring" {
		t.Fatal("nesting lost")
	}
	rt := tr.Root.Children[1].Children[0]
	if rt.Name != "retrieval" || rt.Duration != 500*time.Microsecond {
		t.Fatalf("AddTimed child %+v", rt)
	}
	// JSON round trip keeps the tree.
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "req-1" || len(back.Root.Children) != 2 {
		t.Fatalf("round trip %s", b)
	}
}

func TestSpanNilSafe(t *testing.T) {
	// No trace in context: spans are nil and every method must no-op.
	_, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("span without a trace must be nil")
	}
	sp.End()
	sp.AddTimed("x", time.Millisecond)
	var tr *Trace
	tr.Finish() // nil trace must not panic
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(3)
	if got := l.snapshot(); len(got) != 0 {
		t.Fatalf("empty log snapshot %d", len(got))
	}
	for i := 0; i < 5; i++ {
		_, tr := StartTrace(context.Background(), "q")
		tr.ID = fmt.Sprintf("t%d", i)
		tr.Finish()
		l.Add(tr)
	}
	got := l.snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot %d, want capacity 3", len(got))
	}
	// Newest first, oldest evicted.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].ID != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, got[i].ID, want)
		}
	}

	srv := httptest.NewServer(l.handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 || traces[0].ID != "t4" {
		t.Fatalf("handler returned %+v", traces)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if RequestIDFromContext(r.Context()) == "" {
			t.Error("request ID missing from context")
		}
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short and stout")
	})
	srv := httptest.NewServer(AccessLog(&buf, inner))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/pot?x=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("X-Request-Id header missing")
	}
	var entry struct {
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"dur_ms"`
		Bytes     int64   `json:"bytes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("log line %q: %v", buf.String(), err)
	}
	if entry.Method != "GET" || entry.Path != "/pot" || entry.Status != http.StatusTeapot {
		t.Fatalf("entry %+v", entry)
	}
	if entry.Bytes != int64(len("short and stout")) || entry.DurMS < 0 {
		t.Fatalf("entry %+v", entry)
	}
	if entry.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatal("log line and response header disagree on request ID")
	}
}

func TestAccessLogConcurrent(t *testing.T) {
	// Concurrent requests must produce whole, parseable lines.
	var buf bytes.Buffer
	srv := httptest.NewServer(AccessLog(&buf, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	srv.Close()
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("corrupt log line %q", sc.Text())
		}
	}
	if lines != 16 {
		t.Fatalf("%d log lines, want 16", lines)
	}
}
