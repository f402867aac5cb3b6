package main

import (
	"testing"
	"time"

	"sirius/internal/sirius"
)

// voiceImageLatency is the latency object of a VIQ reply.
func voiceImageLatency() sirius.Latency {
	us := time.Microsecond
	return sirius.Latency{
		Total: 19000 * us,
		ASR:   12000 * us, ASRFeature: 3000 * us, ASRScoring: 4000 * us, ASRSearch: 5000 * us,
		IMM: 4000 * us, IMMFE: 3000 * us, IMMFD: 800 * us, IMMSearch: 200 * us,
		QA: 600 * us, QAStemming: 250 * us, QARegex: 250 * us, QACRF: 90 * us, QARetrieval: 10 * us,
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		// Four leaves answering in parallel cover their union once.
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 120, End: 160}, {Start: 115, End: 130}, {Start: 155, End: 180}}, 30},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		// Clocks read on other goroutines can stick out of the parent.
		{"sticking out", []span{{Start: 90, End: 120}, {Start: 180, End: 230}}, 60},
		{"outside", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
		{"covering", []span{{Start: 50, End: 250}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// The rows of one request add up to its client span when nothing runs
// in parallel, and each span's time lands on its own layer.
func TestLedgerAttributesSelfTime(t *testing.T) {
	spans := []span{
		{Req: "a", Name: spanClient, Start: 0, End: 1000},
		{Req: "a", Name: spanFrontend, Parent: spanClient, Start: 100, End: 900},
		{Req: "a", Name: spanBackend, Parent: spanFrontend, Start: 200, End: 800},
		{Req: "a", Name: spanProcess, Parent: spanBackend, Start: 300, End: 800},
		{Req: "b", Name: spanClient, Start: 5000, End: 6000},
		{Req: "b", Name: spanFrontend, Parent: spanClient, Start: 5000, End: 5500},
	}
	want := map[string]time.Duration{spanClient: 200 + 500, spanFrontend: 200 + 500, spanBackend: 100, spanProcess: 500}
	var total float64
	for _, row := range ledger(spans) {
		if got := time.Duration(row.SelfS * 1e9); got != want[row.Layer] {
			t.Errorf("layer %s: self %v, want %v", row.Layer, got, want[row.Layer])
		}
		total += row.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares add up to %g, want 1", total)
	}
}

func TestStageSpansStayInsideBackend(t *testing.T) {
	backend := span{Req: "r", Name: spanBackend, Start: 1_000_000, End: 21_000_000}
	spans := stageSpans(backend, voiceImageLatency(), false)
	byName := map[string]span{}
	for _, s := range spans {
		if s.Start < backend.Start || s.End > backend.End {
			t.Errorf("span %s [%d,%d] leaves the backend span", s.Name, s.Start, s.End)
		}
		byName[s.Name] = s
	}
	for _, name := range []string{spanProcess, "asr", "audio.mfcc", "gmm.score", "hmm.search", "imm", "vision.fe", "qa", "nlp.crf"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}
	// Every stage's time is its kernels': the stage itself keeps none.
	if got := selfTime(byName["asr"], []span{byName["audio.mfcc"], byName["gmm.score"], byName["hmm.search"]}); got != 0 {
		t.Errorf("asr keeps %d ns of self time", got)
	}
}
