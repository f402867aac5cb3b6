package hmm

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestPushRanked: the ranking keeps the best `limit` candidates, best
// first, and a candidate goes behind (or, full, loses to) its equals.
func TestPushRanked(t *testing.T) {
	x := make([]xcand, 0, 3)
	for seq, s := range []float64{3, 1, 5, 3, 4, 3} {
		x = pushRanked(x, xcand{score: s, seq: int32(seq)}, 3)
	}
	want := []xcand{{score: 5, seq: 2}, {score: 4, seq: 4}, {score: 3, seq: 0}}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("ranking: %+v, want %+v", x, want)
	}
}

// TestNBestAdvanceSteadyStateAllocs pins the n-best frame loop's
// contract, as TestStepZeroAllocSteadyState does for the 1-best.
func TestNBestAdvanceSteadyStateAllocs(t *testing.T) {
	requireAllocFreeFrames(t, 4)
}

// requireAllocFreeFrames checks that, once the token slabs, work lists and
// arena slabs exist, advancing an n-best session a frame (scoring
// included) performs zero heap allocations.
func requireAllocFreeFrames(t *testing.T, n int) {
	t.Helper()
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	s := dec.NewNBestSession(n)
	defer s.release()
	if err := s.Advance(context.Background(), frames); err != nil { // grow the arena
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		// Reset the arena so repeated frames bump-allocate from the slabs
		// already grown; the frame loop never follows an old node.
		s.sc.arena.reset()
		if err := s.Advance(ctx, frames[:1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("n=%d: frame allocates %v per op, want 0", n, allocs)
	}
	if s.bestState < 0 {
		t.Fatalf("n=%d: no token left alive: the measurement relaxed nothing", n)
	}
}

// TestDecodeNBestTopMatchesDecode: the top hypothesis is the 1-best
// decode of the arc-by-arc Viterbi reference.
func TestDecodeNBestTopMatchesDecode(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * StatesPerPhone
	table, frames := synthEmissions(g, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := RefDecode(dec, lm, frames)
	nbest := dec.DecodeNBest(frames, 1)
	if len(nbest) != 1 {
		t.Fatalf("nbest size %d", len(nbest))
	}
	if strings.Join(nbest[0].Words, " ") != strings.Join(one.Words, " ") {
		t.Fatalf("1-best mismatch: %v vs %v", nbest[0].Words, one.Words)
	}
	if math.Abs(nbest[0].Score-one.Score) > 1e-9 {
		t.Fatalf("score mismatch: %v vs %v", nbest[0].Score, one.Score)
	}
}

func TestDecodeNBestDistinctAndOrdered(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	cfg.Beam = 0
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * StatesPerPhone
	table, frames := synthEmissions(g, []string{"k", "ow"}, 4)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hyps := dec.DecodeNBest(frames, 4)
	if len(hyps) < 2 {
		t.Fatalf("want multiple hypotheses, got %d", len(hyps))
	}
	seen := map[string]bool{}
	for i, h := range hyps {
		key := strings.Join(h.Words, " ")
		if seen[key] {
			t.Fatalf("duplicate hypothesis %q", key)
		}
		seen[key] = true
		if i > 0 && h.Score > hyps[i-1].Score {
			t.Fatal("hypotheses not sorted by score")
		}
	}
	if strings.Join(hyps[0].Words, " ") != "go" {
		t.Fatalf("best hypothesis %v", hyps[0].Words)
	}
	// Empty input.
	if got := dec.DecodeNBest(nil, 3); got != nil {
		t.Fatal("empty input must return nil")
	}
}

func TestTrigramScoringAndRescore(t *testing.T) {
	lex := NewLexicon()
	lex.AddWords("call", "mom", "time", "the", "capital", "of", "off", "italy")
	tri := NewTrigram(lex)
	for i := 0; i < 20; i++ {
		tri.Observe("the capital of italy")
		tri.Observe("call mom")
	}
	tri.Observe("call time")
	// Trained sequences outscore their confusions.
	if tri.Score([]string{"the", "capital", "of", "italy"}) <= tri.Score([]string{"the", "capital", "off", "italy"}) {
		t.Fatal("trigram must prefer the trained sequence")
	}
	// OOV resets context without -Inf.
	if s := tri.Score([]string{"zzz", "call", "mom"}); math.IsInf(s, -1) {
		t.Fatal("OOV must not be -Inf")
	}
	// Rescoring flips a near-tie toward the LM-preferred hypothesis.
	hyps := []Result{
		{Words: []string{"the", "capital", "off", "italy"}, Score: -100.0},
		{Words: []string{"the", "capital", "of", "italy"}, Score: -100.5},
	}
	if got := tri.Rescore(hyps, 2.0); got != 1 {
		t.Fatalf("rescore picked %d", got)
	}
	// With zero LM weight the acoustic score decides.
	if got := tri.Rescore(hyps, 0); got != 0 {
		t.Fatalf("zero-weight rescore picked %d", got)
	}
	if tri.Rescore(nil, 1) != -1 {
		t.Fatal("empty rescore must return -1")
	}
}
