package hmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestG2PBasics(t *testing.T) {
	cases := map[string][]string{
		"see":   {"s", "iy"},
		"shoe":  {"sh", "ow", "eh"},
		"cat":   {"k", "aa", "t"},
		"book":  {"p", "uw", "k"},
		"":      {"ah"},
		"LL":    {"l"},
		"what":  {"w", "aa", "t"},
		"phase": {"f", "aa", "s", "eh"},
	}
	for word, want := range cases {
		got := g2p(word)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("G2P(%q) = %v, want %v", word, got, want)
		}
	}
}

func TestG2PNeverEmpty(t *testing.T) {
	f := func(s string) bool { return len(g2p(s)) > 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLexicon(t *testing.T) {
	lex := NewLexicon()
	lex.AddWords("Alpha", "beta")
	lex.add("gamma", []string{"k", "aa", "m", "aa"})
	if lex.size() != 3 {
		t.Fatalf("size %d", lex.size())
	}
	if lex.index("ALPHA") != 0 || lex.index("beta") != 1 || lex.index("nope") != -1 {
		t.Fatal("index lookup broken")
	}
	p, err := lex.Pron("gamma")
	if err != nil || len(p) != 4 {
		t.Fatalf("pron: %v %v", p, err)
	}
	if _, err := lex.Pron("zzz"); err == nil {
		t.Fatal("expected OOV error")
	}
	// Re-adding replaces the pronunciation but keeps the index.
	lex.add("alpha", []string{"aa"})
	if lex.size() != 3 || lex.index("alpha") != 0 {
		t.Fatal("re-add must not grow vocabulary")
	}
	ps := lex.PhoneSet()
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Fatal("PhoneSet must be sorted and unique")
		}
	}
}

func TestBigramProbabilities(t *testing.T) {
	lex := NewLexicon()
	lex.AddWords("the", "cat", "sat")
	lm := NewBigram(lex)
	lm.Observe("the cat sat")
	lm.Observe("the cat")
	// P(cat | the) should dominate P(sat | the).
	if lm.logProb(lex.index("the"), lex.index("cat")) <= lm.logProb(lex.index("the"), lex.index("sat")) {
		t.Fatal("observed bigram must outscore unobserved")
	}
	// Distribution property: sum_next P(next|prev) == 1.
	for prev := -1; prev < lex.size(); prev++ {
		var sum float64
		for next := 0; next < lex.size(); next++ {
			sum += math.Exp(lm.logProb(prev, next))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("P(.|%d) sums to %v", prev, sum)
		}
	}
	// A trained sentence must have lower perplexity than a shuffled one.
	if lm.Perplexity("the cat sat") >= lm.Perplexity("sat the cat") {
		t.Fatal("perplexity ordering wrong")
	}
	if !math.IsInf(lm.Perplexity("zzz qqq"), 1) {
		t.Fatal("all-OOV perplexity must be +Inf")
	}
}

// tableScorer scores senones from a fixed per-frame table: senone s gets
// table[frame][s]. Frames are identified by their first element. The
// row headers are reused from call to call — the search is done with a
// block before it asks for the next — so the zero-allocation tests
// measure the search alone.
type tableScorer struct {
	table    [][]float64
	nSenones int
	out      [][]float64
}

func (ts *tableScorer) Score(_ context.Context, frames [][]float64) [][]float64 {
	ts.out = ts.out[:0]
	for _, f := range frames {
		ts.out = append(ts.out, ts.table[int(f[0])])
	}
	return ts.out
}
func (ts *tableScorer) NumSenones() int { return ts.nSenones }

// buildToyGraph compiles a 2-word toy task and a scorer that strongly
// prefers the senones of the given word sequence.
func buildToy(t *testing.T) (*Lexicon, *Bigram) {
	t.Helper()
	lex := NewLexicon()
	lex.add("go", []string{"k", "ow"})
	lex.add("stop", []string{"s", "t", "aa", "p"})
	lm := NewBigram(lex)
	lm.Observe("go stop go")
	return lex, lm
}

// buildToyWithSilence is buildToy's task with SilenceWord added, so that
// go and stop each end in a silence tail.
func buildToyWithSilence(t *testing.T) (*Lexicon, *Bigram) {
	t.Helper()
	lex := NewLexicon()
	lex.add("go", []string{"k", "ow"})
	lex.add("stop", []string{"s", "t", "aa", "p"})
	lex.AddSilence()
	lm := NewBigram(lex)
	lm.Observe("go stop go")
	return lex, lm
}

func TestCompileGraphShape(t *testing.T) {
	type shape struct {
		states                                           int
		wordStart, wordFinal, exits, exitWord, firstExit []int32
	}
	for _, c := range []struct {
		name  string
		build func(*testing.T) (*Lexicon, *Bigram)
		want  shape
	}{
		// go has 2 phones, stop has 4: (2+4)*3 states, one exit per word.
		{"no silence", buildToy, shape{18, []int32{0, 6}, []int32{5, 17}, []int32{5, 17}, []int32{0, 1}, []int32{0, 1, 2}}},
		// Each word but <sil> gains the 3 states of its sil tail and a
		// second exit after them; <sil> is a word of 3 states and 1 exit.
		{"silence", buildToyWithSilence, shape{27, []int32{0, 9, 24}, []int32{8, 23, 26}, []int32{5, 8, 20, 23, 26}, []int32{0, 0, 1, 1, 2}, []int32{0, 2, 4, 5}}},
	} {
		lex, lm := c.build(t)
		g, err := CompileGraph(lex, lm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := shape{g.numStates(), g.wordStart, g.wordFinal, g.exits, g.exitWord, g.firstExit}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: graph %+v, want %+v", c.name, got, c.want)
		}
		if sil := g.phoneIdx[silencePhone]; c.name == "silence" && g.senones[8] != int32(sil*StatesPerPhone+2) {
			t.Fatalf("%s: go's tail ends on senone %d, want sil's last, %d", c.name, g.senones[8], sil*StatesPerPhone+2)
		}
		if len(g.Phones()) == 0 {
			t.Fatalf("%s: empty phone set", c.name)
		}
	}
}

func TestCompileGraphErrors(t *testing.T) {
	lex := NewLexicon()
	lex.add("bad", nil)
	lm := NewBigram(lex)
	if _, err := CompileGraph(lex, lm, DefaultConfig()); err == nil {
		t.Fatal("expected error for empty pronunciation")
	}
}

func TestDecoderRejectsSmallScorer(t *testing.T) {
	lex, lm := buildToy(t)
	g, err := CompileGraph(lex, lm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(g, &tableScorer{nSenones: 1}, DefaultConfig()); err == nil {
		t.Fatal("expected senone-count error")
	}
}

// synthEmissions builds a frame table where the senones belonging to the
// target phone sequence (3 states per phone, in order) are favored in a
// left-to-right schedule.
func synthEmissions(g *Graph, phones []string, framesPerState int) ([][]float64, [][]float64) {
	nSen := len(g.Phones()) * StatesPerPhone
	var table [][]float64
	var frames [][]float64
	fi := 0
	for _, ph := range phones {
		pi := g.phoneIdx[ph]
		for s := 0; s < StatesPerPhone; s++ {
			for r := 0; r < framesPerState; r++ {
				row := make([]float64, nSen)
				for i := range row {
					row[i] = -20
				}
				row[pi*StatesPerPhone+s] = -1
				table = append(table, row)
				frames = append(frames, []float64{float64(fi)})
				fi++
			}
		}
	}
	return table, frames
}

func TestDecodeRecoversWordSequence(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Utterance: "stop go".
	phones := []string{"s", "t", "aa", "p", "k", "ow"}
	table, frames := synthEmissions(g, phones, 3)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := dec.Decode(frames)
	if got := strings.Join(res.Words, " "); got != "stop go" {
		t.Fatalf("decoded %q, want \"stop go\" (score %v)", got, res.Score)
	}
	if res.Frames != len(frames) {
		t.Fatalf("bad result metadata: %+v", res)
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	lex, lm := buildToy(t)
	g, _ := CompileGraph(lex, lm, DefaultConfig())
	dec, _ := NewDecoder(g, &tableScorer{nSenones: len(g.Phones()) * StatesPerPhone}, DefaultConfig())
	res := dec.Decode(nil)
	if len(res.Words) != 0 || res.Frames != 0 {
		t.Fatalf("empty decode: %+v", res)
	}
}

func TestBeamPruningPreservesEasyResult(t *testing.T) {
	lex, lm := buildToy(t)
	for _, beam := range []float64{0, 5, 50, 500} {
		cfg := DefaultConfig()
		cfg.Beam = beam
		g, err := CompileGraph(lex, lm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		phones := []string{"k", "ow"}
		table, frames := synthEmissions(g, phones, 4)
		dec, _ := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
		res := dec.Decode(frames)
		if got := strings.Join(res.Words, " "); got != "go" {
			t.Fatalf("beam %v decoded %q, want \"go\"", beam, got)
		}
	}
}

// TestViterbiOptimalityBruteForce checks the decoder against exhaustive
// path enumeration on tiny graphs with few frames, with and without a
// silence tail on each word.
func TestViterbiOptimalityBruteForce(t *testing.T) {
	table := [][]float64{
		{-1, -3, -2, -4, -2, -9, -2, -1, -3},
		{-2, -1, -5, -3, -1, -2, -4, -2, -1},
		{-4, -2, -1, -2, -3, -1, -1, -3, -2},
		{-1, -5, -2, -1, -2, -2, -2, -1, -4},
		{-3, -1, -4, -2, -1, -3, -1, -2, -1},
		{-2, -2, -1, -3, -4, -1, -3, -1, -2},
	}
	for _, silence := range []bool{false, true} {
		lex := NewLexicon()
		lex.add("a", []string{"aa"})
		lex.add("b", []string{"iy"})
		if silence {
			lex.AddSilence()
		}
		lm := NewBigram(lex)
		lm.Observe("a b")
		cfg := Config{Beam: 0, WordPenalty: 0, LMWeight: 1}
		g, err := CompileGraph(lex, lm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nSen := len(g.Phones()) * StatesPerPhone
		frames := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
		dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := dec.Decode(frames)

		// Brute force over all state paths of the dense graph that end on
		// an exit.
		arcs := denseArcs(g, lm, cfg)
		exit := map[int]bool{}
		for _, st := range g.exits {
			exit[int(st)] = true
		}
		best := math.Inf(-1)
		var rec func(state, frame int, score float64)
		rec = func(state, frame int, score float64) {
			score += table[frame][g.senones[state]]
			if frame == len(frames)-1 {
				if exit[state] && score > best {
					best = score
				}
				return
			}
			for _, a := range arcs[state] {
				rec(int(a.to), frame+1, score+a.weight)
			}
		}
		for wi := 0; wi < lex.size(); wi++ {
			rec(int(g.wordStart[wi]), 0, g.startProbs[wi])
		}
		if math.IsInf(best, -1) || math.Abs(res.Score-best) > 1e-9 {
			t.Fatalf("silence %v: Viterbi score %v != brute force %v", silence, res.Score, best)
		}
	}
}

func TestGraphInvariantsProperty(t *testing.T) {
	// Random small lexica, half of them holding SilenceWord, compile into
	// structurally valid graphs: every senone within the phone set, each
	// word's states a run from its start to its final state, its exits
	// ascending inside that run with the last on its final state, one exit
	// per word or, with silence, two for every word but SilenceWord, the
	// second three states after the first; every exception arc from a word
	// in range.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lex := NewLexicon()
		vocabSize := 1 + rng.Intn(8)
		phonePool := []string{"aa", "iy", "uw", "s", "t", "k", "m", "n"}
		for w := 0; w < vocabSize; w++ {
			n := 1 + rng.Intn(4)
			pron := make([]string, n)
			for i := range pron {
				pron[i] = phonePool[rng.Intn(len(phonePool))]
			}
			lex.add(fmt.Sprintf("w%d", w), pron)
		}
		silence := rng.Intn(2) == 0
		if silence {
			lex.AddSilence()
		}
		lm := NewBigram(lex)
		lm.Observe("w0")
		g, err := CompileGraph(lex, lm, DefaultConfig())
		if err != nil {
			return false
		}
		nSen := len(g.Phones()) * StatesPerPhone
		for s := 0; s < g.numStates(); s++ {
			if int(g.senones[s]) < 0 || int(g.senones[s]) >= nSen {
				return false
			}
		}
		if len(g.exitWord) != len(g.exits) || int(g.firstExit[lex.size()]) != len(g.exits) {
			return false
		}
		next := int32(0)
		for wi, word := range lex.words {
			first, end := g.firstExit[wi], g.firstExit[wi+1]
			want := int32(1)
			if silence && word != SilenceWord {
				want = 2
			}
			if g.wordStart[wi] != next || end-first != want || g.exits[end-1] != g.wordFinal[wi] {
				return false
			}
			if want == 2 && g.exits[first] != g.wordFinal[wi]-StatesPerPhone {
				return false
			}
			for i := first; i < end; i++ {
				if g.exitWord[i] != int32(wi) || g.exits[i] < g.wordStart[wi] || (i > 0 && g.exits[i] <= g.exits[i-1]) {
					return false
				}
			}
			next = g.wordFinal[wi] + 1
			if len(g.xExc[wi]) > g.maxExc {
				return false
			}
			for _, e := range g.xExc[wi] {
				if e.from < 0 || int(e.from) >= lex.size() {
					return false
				}
			}
		}
		return int(next) == g.numStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStepZeroAllocSteadyState pins the frame step's contract: once a
// warm session's tokens, work lists and arena slabs exist, relaxing a
// frame through the beam performs zero heap allocations.
func TestStepZeroAllocSteadyState(t *testing.T) {
	requireAllocFreeFrames(t, buildToy)
}

// TestDecoderScratchReuseAcrossDecodes: back-to-back decodes on one
// decoder must give identical results (the pooled scratch fully resets).
func TestDecoderScratchReuseAcrossDecodes(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, frames := synthEmissions(g, []string{"s", "t", "aa", "p"}, 3)
	nSen := len(g.Phones()) * StatesPerPhone
	d, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Decode(frames)
	if len(want.Words) == 0 {
		t.Fatal("first decode found no words")
	}
	for i := 0; i < 3; i++ {
		again := d.Decode(frames)
		if strings.Join(again.Words, " ") != strings.Join(want.Words, " ") || again.Score != want.Score {
			t.Fatalf("decode %d diverged: %v (%v) vs %v (%v)", i, again.Words, again.Score, want.Words, want.Score)
		}
	}
}
