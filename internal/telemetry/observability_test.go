package telemetry

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "abcd1234-000007", SpanID: "abcd1234.0000a1", Sampled: true}
	got, err := parseSpanContext(sc.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	for _, bad := range []string{"", "a:b", "a:b:c:d", ":x:1", "x::1"} {
		if _, err := parseSpanContext(bad); err == nil {
			t.Errorf("ParseSpanContext(%q): want error", bad)
		}
	}
}

// buildRemoteTrace fabricates a finished backend-style trace with fixed
// offsets/durations, as if decoded on the frontend.
func buildRemoteTrace() *Trace {
	ctx, tr := StartTrace(context.Background(), "query")
	_, sp := StartSpan(ctx, "qa")
	sp.AddTimed("regex", time.Millisecond)
	sp.AddTimed("retrieval", 2*time.Millisecond)
	sp.End()
	tr.Finish()
	return tr
}

func TestStitchRoundTripLossless(t *testing.T) {
	tr := buildRemoteTrace()
	enc := tr.EncodeSpans()
	if enc == "" {
		t.Fatal("EncodeSpans returned empty")
	}
	dec, err := DecodeSpans(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != enc {
		t.Fatalf("serialize -> decode -> re-serialize not lossless:\n %s\nvs %s", enc, re)
	}

	// Stitch under a frontend attempt span and re-serialize: names, ids,
	// durations and structure must survive; offsets are re-anchored.
	fctx, ftr := StartTrace(context.Background(), "frontend")
	_, attempt := StartSpan(fctx, "attempt backend-1")
	time.Sleep(5 * time.Millisecond)
	attempt.End()
	attempt.Graft(dec)
	ftr.Finish()

	var names func(s *Span) []string
	names = func(s *Span) []string {
		out := []string{s.Name + "/" + s.ID}
		for _, c := range s.Children {
			out = append(out, names(c)...)
		}
		return out
	}
	want := strings.Join(names(tr.Root), ",")
	got := strings.Join(names(attempt.Children[0]), ",")
	if got != want {
		t.Fatalf("stitched tree lost structure:\n got %s\nwant %s", got, want)
	}
	if attempt.Children[0].Duration != tr.Root.Duration {
		t.Fatal("stitched root duration changed")
	}
}

func TestGraftOffsetsMonotonicUnderSkew(t *testing.T) {
	// Remote offsets simulate severe clock skew: the remote root claims
	// an offset far beyond its parent, and a child sits "before" it.
	remote := &Span{ID: "r1", Name: "query", Offset: 40 * time.Millisecond, Duration: 30 * time.Millisecond,
		Children: []*Span{
			{ID: "r2", Name: "qa", Offset: 35 * time.Millisecond, Duration: 10 * time.Millisecond},
		}}

	fctx, ftr := StartTrace(context.Background(), "frontend")
	_, attempt := StartSpan(fctx, "attempt")
	attempt.End()
	attempt.Graft(remote)
	ftr.Finish()

	var walk func(s *Span, floor time.Duration)
	walk = func(s *Span, floor time.Duration) {
		if s.Offset < 0 {
			t.Errorf("span %s: negative offset %v", s.Name, s.Offset)
		}
		if s.Offset < floor {
			t.Errorf("span %s: offset %v before parent %v", s.Name, s.Offset, floor)
		}
		for _, c := range s.Children {
			walk(c, s.Offset)
		}
	}
	walk(ftr.Root, 0)
	if !remote.Remote {
		t.Error("grafted span not marked remote")
	}
}

func TestConcurrentSpansOnSharedParent(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, sp := StartSpan(ctx, "child")
			_, inner := StartSpan(cctx, "grandchild")
			inner.End()
			sp.AddTimed("timed", time.Microsecond)
			sp.End()
			sp.Graft(&Span{Name: "remote", Duration: time.Microsecond})
		}()
	}
	// Concurrent reader: marshaling must be safe while spans are added.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := json.Marshal(tr); err != nil {
				t.Errorf("marshal during span churn: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	tr.Finish()
	if n := len(tr.Root.Children); n != 16 {
		t.Fatalf("got %d children, want 16", n)
	}
}

func TestTraceLogGetAndHandler(t *testing.T) {
	l := NewTraceLog(4)
	_, tr := StartTrace(ContextWithRequestID(context.Background(), "req-42"), "q")
	tr.Finish()
	l.Add(tr)
	if got := l.get("req-42"); got != tr {
		t.Fatal("Get did not find trace by id")
	}
	if l.get("nope") != nil {
		t.Fatal("Get returned trace for unknown id")
	}

	rec := httptest.NewRecorder()
	l.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=req-42", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"req-42"`) {
		t.Fatalf("id lookup: code %d body %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	l.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("missing id: code %d, want 404", rec.Code)
	}
}

// TestHistogramExemplars: /metrics carries the retained exemplar of every
// bucket at or above the p90-covering one, and none below it.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("test_latency_seconds", "help")
	h.ObserveTrace(time.Microsecond, "fastest")
	for i := 0; i < 89; i++ {
		h.ObserveTrace(time.Millisecond, "fast")
	}
	h.ObserveTrace(time.Second, "slow-1")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var traced []string
	for _, line := range strings.Split(b.String(), "\n") {
		if _, ex, ok := strings.Cut(line, ` # {trace_id="`); ok {
			id, _, _ := strings.Cut(ex, `"`)
			traced = append(traced, id)
		}
	}
	// The p90-covering bucket (the 1ms one) qualifies; the 1µs bucket
	// below it may not be exported, so exactly two exemplars appear, in
	// bucket order.
	if len(traced) != 2 || traced[0] != "fast" || traced[1] != "slow-1" {
		t.Fatalf("exemplars on /metrics %q, want [fast slow-1]", traced)
	}
}

func TestExemplarExpositionLints(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogramVec("test_latency_seconds", "help", "kind")
	v.With("text").ObserveTrace(2*time.Millisecond, "t-1")
	v.With("text").ObserveTrace(800*time.Millisecond, `quote"and\slash`)
	reg.NewCounter("test_requests_total", "help").Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `# {trace_id="`) {
		t.Fatalf("no exemplar in exposition:\n%s", text)
	}
	if err := LintPrometheus(text); err != nil {
		t.Fatalf("lint rejected our own exposition: %v", err)
	}
}

func TestLintPrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "foo 1\n",
		"bad name":          "# TYPE 0foo counter\n0foo 1\n",
		"bad value":         "# TYPE foo counter\nfoo one\n",
		"bad label name":    "# TYPE foo counter\nfoo{0x=\"v\"} 1\n",
		"unquoted label":    "# TYPE foo counter\nfoo{a=v} 1\n",
		"unterminated":      "# TYPE foo counter\nfoo{a=\"v} 1\n",
		"exemplar on ctr":   "# TYPE foo counter\nfoo 1 # {trace_id=\"x\"} 1\n",
		"no +Inf bucket":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"count != inf":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n",
		"le outside histo":  "# TYPE foo gauge\nfoo{le=\"1\"} 1\n",
		"bounds decreasing": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
	}
	for name, text := range cases {
		if err := LintPrometheus(text); err == nil {
			t.Errorf("%s: lint accepted malformed payload:\n%s", name, text)
		}
	}
	good := "# HELP foo a counter\n# TYPE foo counter\nfoo{a=\"b\"} 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1 # {trace_id=\"x\"} 0.09 1700000000.123\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.2\nh_count 2\n"
	if err := LintPrometheus(good); err != nil {
		t.Errorf("lint rejected well-formed payload: %v", err)
	}
}

// TestSLOBurnFloorsAtZero: a window whose baseline overstated bad (a
// reading that caught a child's bucket before its count) burns 0, not a
// wrapped unsigned difference.
func TestSLOBurnFloorsAtZero(t *testing.T) {
	total, good := uint64(10), uint64(5)
	s := &SLO{target: 100 * time.Millisecond, source: func() (uint64, uint64) { return total, good }}
	s.Snapshot()
	s.samples[0].at = s.samples[0].at.Add(-time.Minute)
	total, good = 13, 13
	if b := s.Snapshot().Burn["1m"]; b != 0 {
		t.Fatalf(`Burn["1m"] = %g, want 0`, b)
	}
}

func TestSLOBurn(t *testing.T) {
	var total, good uint64
	s := &SLO{target: 100 * time.Millisecond, source: func() (uint64, uint64) { return total, good }}

	snap := s.Snapshot()
	if snap.Compliance != 1 || snap.BudgetRemaining != 1 {
		t.Fatalf("empty SLO: %+v", snap)
	}
	total, good = 100, 98
	snap = s.Snapshot()
	if snap.Compliance != 0.98 {
		t.Fatalf("compliance = %g, want 0.98", snap.Compliance)
	}
	// 2% bad against a 1% budget: burn 2x on every window (zero
	// baseline — the process is younger than any window).
	for w, b := range snap.Burn {
		if b < 1.99 || b > 2.01 {
			t.Fatalf("burn[%s] = %g, want 2", w, b)
		}
	}
	if snap.BudgetRemaining > -0.99 {
		t.Fatalf("budget remaining = %g, want -1", snap.BudgetRemaining)
	}

	reg := NewRegistry()
	s.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"sirius_slo_target_seconds 0.1", "sirius_slo_objective_ratio 0.99",
		`sirius_slo_burn_rate{window="5m"}`} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := LintPrometheus(text); err != nil {
		t.Fatalf("SLO exposition failed lint: %v", err)
	}
}

func TestSLOFromVec(t *testing.T) {
	v := newHistogramVec("kind")
	v.With("text").Observe(time.Millisecond) // well under target
	v.With("text").Observe(10 * time.Second) // over target
	v.With("voice").Observe(500 * time.Microsecond)
	s := NewSLOFromVec(v, 100*time.Millisecond)
	snap := s.Snapshot()
	if snap.Total != 3 {
		t.Fatalf("total = %d, want 3", snap.Total)
	}
	if snap.Good != 2 {
		t.Fatalf("good = %d, want 2 (conservative whole-bucket count)", snap.Good)
	}
}

func TestBreakdownReport(t *testing.T) {
	RecordKernel("asr", "gmm", 30*time.Millisecond)
	RecordKernel("asr", "viterbi", 10*time.Millisecond)
	RecordKernel("qa", "regex", 10*time.Millisecond)
	model := map[string]map[string]KernelModel{
		"asr": {"gmm": {IPC: 1.2, Retiring: 0.3}},
	}
	rep := breakdown(model)
	if rep.TotalSeconds <= 0 || len(rep.Stages) < 2 {
		t.Fatalf("empty report: %+v", rep)
	}
	var shares float64
	foundModel := false
	for _, st := range rep.Stages {
		shares += st.Share
		for _, k := range st.Kernels {
			if k.Kernel == "gmm" && k.Model != nil && k.Model.IPC == 1.2 {
				foundModel = true
			}
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("stage shares sum to %g, want 1", shares)
	}
	if !foundModel {
		t.Fatal("model row not attached to gmm kernel")
	}
}
