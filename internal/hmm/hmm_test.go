package hmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
		got := G2P(word)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("G2P(%q) = %v, want %v", word, got, want)
		}
	}
}

func TestG2PNeverEmpty(t *testing.T) {
	f := func(s string) bool { return len(G2P(s)) > 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLexicon(t *testing.T) {
	lex := NewLexicon()
	lex.AddWords("Alpha", "beta")
	lex.Add("gamma", []string{"k", "aa", "m", "aa"})
	if lex.Size() != 3 {
		t.Fatalf("size %d", lex.Size())
	}
	if lex.Index("ALPHA") != 0 || lex.Index("beta") != 1 || lex.Index("nope") != -1 {
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
	lex.Add("alpha", []string{"aa"})
	if lex.Size() != 3 || lex.Index("alpha") != 0 {
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
	if lm.LogProb(lex.Index("the"), lex.Index("cat")) <= lm.LogProb(lex.Index("the"), lex.Index("sat")) {
		t.Fatal("observed bigram must outscore unobserved")
	}
	// Distribution property: sum_next P(next|prev) == 1.
	for prev := -1; prev < lex.Size(); prev++ {
		var sum float64
		for next := 0; next < lex.Size(); next++ {
			sum += math.Exp(lm.LogProb(prev, next))
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
	lex.Add("go", []string{"k", "ow"})
	lex.Add("stop", []string{"s", "t", "aa", "p"})
	lm := NewBigram(lex)
	lm.Observe("go stop go")
	return lex, lm
}

func TestCompileGraphShape(t *testing.T) {
	lex, lm := buildToy(t)
	g, err := CompileGraph(lex, lm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// go has 2 phones, stop has 4: (2+4)*3 states.
	if g.NumStates() != 18 {
		t.Fatalf("states = %d, want 18", g.NumStates())
	}
	if len(g.Phones()) == 0 {
		t.Fatal("empty phone set")
	}
	// Word-final states: exactly 2.
	finals := 0
	for _, we := range g.wordEnd {
		if we >= 0 {
			finals++
		}
	}
	if finals != 2 {
		t.Fatalf("finals = %d", finals)
	}
}

func TestCompileGraphErrors(t *testing.T) {
	lex := NewLexicon()
	lex.Add("bad", nil)
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
	if res.Frames != len(frames) || res.AvgActive <= 0 {
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

func TestTighterBeamReducesActiveStates(t *testing.T) {
	lex, lm := buildToy(t)
	g, err := CompileGraph(lex, lm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	phones := []string{"s", "t", "aa", "p"}
	table, frames := synthEmissions(g, phones, 4)
	run := func(beam float64) float64 {
		cfg := DefaultConfig()
		cfg.Beam = beam
		dec, _ := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
		return dec.Decode(frames).AvgActive
	}
	if run(3) > run(0) {
		t.Fatal("tight beam must not activate more states than no beam")
	}
}

// TestViterbiOptimalityBruteForce checks the decoder against exhaustive
// path enumeration on a tiny graph with few frames.
func TestViterbiOptimalityBruteForce(t *testing.T) {
	lex := NewLexicon()
	lex.Add("a", []string{"aa"})
	lex.Add("b", []string{"iy"})
	lm := NewBigram(lex)
	lm.Observe("a b")
	cfg := Config{Beam: 0, WordPenalty: 0, LMWeight: 1}
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * StatesPerPhone
	table := [][]float64{
		{-1, -3, -2, -4, -2, -9},
		{-2, -1, -5, -3, -1, -2},
		{-4, -2, -1, -2, -3, -1},
		{-1, -5, -2, -1, -2, -2},
	}
	frames := [][]float64{{0}, {1}, {2}, {3}}
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := dec.Decode(frames)

	// Brute force over all state paths of the dense graph.
	arcs := denseArcs(g, lm, cfg)
	best := math.Inf(-1)
	var rec func(state, frame int, score float64)
	rec = func(state, frame int, score float64) {
		score += table[frame][g.senones[state]]
		if frame == len(frames)-1 {
			if g.wordEnd[state] >= 0 && score > best {
				best = score
			}
			return
		}
		for _, a := range arcs[state] {
			rec(int(a.to), frame+1, score+a.weight)
		}
	}
	for wi := 0; wi < lex.Size(); wi++ {
		rec(int(g.wordStart[wi]), 0, g.startProbs[wi])
	}
	if math.Abs(res.Score-best) > 1e-9 {
		t.Fatalf("Viterbi score %v != brute force %v", res.Score, best)
	}
}

func TestDecodeConfidence(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	cfg.Beam = 0 // keep the runner-up alive so the margin is defined
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * StatesPerPhone
	// Clear evidence for "go": high confidence and a runner-up naming the
	// other word.
	table, frames := synthEmissions(g, []string{"k", "ow"}, 4)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clear := dec.Decode(frames)
	if clear.Confidence <= 0 {
		t.Fatalf("confidence %v must be positive", clear.Confidence)
	}
	if clear.RunnerUp != "stop" {
		t.Fatalf("runner-up %q, want stop", clear.RunnerUp)
	}
	// Ambiguous evidence (uniform emissions): smaller margin than the
	// clear case.
	uniform := make([][]float64, len(frames))
	for i := range uniform {
		row := make([]float64, nSen)
		for j := range row {
			row[j] = -5
		}
		uniform[i] = row
	}
	dec2, _ := NewDecoder(g, &tableScorer{table: uniform, nSenones: nSen}, cfg)
	vague := dec2.Decode(frames)
	if vague.Confidence >= clear.Confidence {
		t.Fatalf("uniform evidence confidence %v must be below clear %v", vague.Confidence, clear.Confidence)
	}
}

func TestGraphInvariantsProperty(t *testing.T) {
	// Random small lexica compile into structurally valid graphs: every
	// senone within the phone set, exactly one word-final state per word,
	// each word's states a run from its start to its final state, every
	// exception arc from a word in range.
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
			lex.Add(fmt.Sprintf("w%d", w), pron)
		}
		lm := NewBigram(lex)
		lm.Observe("w0")
		g, err := CompileGraph(lex, lm, DefaultConfig())
		if err != nil {
			return false
		}
		nSen := len(g.Phones()) * StatesPerPhone
		finals := 0
		for s := 0; s < g.NumStates(); s++ {
			if int(g.senones[s]) < 0 || int(g.senones[s]) >= nSen {
				return false
			}
			if g.wordEnd[s] >= 0 {
				finals++
				if int(g.wordEnd[s]) >= lex.Size() {
					return false
				}
			}
		}
		if finals != lex.Size() {
			return false
		}
		next := int32(0)
		for wi := range lex.Words() {
			if g.wordStart[wi] != next || g.wordFinal[wi] < next || g.wordEnd[g.wordFinal[wi]] != int32(wi) {
				return false
			}
			next = g.wordFinal[wi] + 1
			if len(g.xExc[wi]) > g.maxExc {
				return false
			}
			for _, e := range g.xExc[wi] {
				if e.from < 0 || int(e.from) >= lex.Size() {
					return false
				}
			}
		}
		return int(next) == g.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStepZeroAllocSteadyState pins the decoder's frame-step contract:
// after one warm decode, relaxing a frame through the beam (token
// arrays, histogram bins, and the backpointer arena all reused)
// performs zero heap allocations.
func TestStepZeroAllocSteadyState(t *testing.T) {
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
	d.Decode(frames) // warm scratch, bins, and arena slabs
	emit := make([]float64, nSen)
	for i := range emit {
		emit[i] = -2
	}
	allocs := testing.AllocsPerRun(100, func() {
		// Reset the arena so repeated steps bump-allocate from the
		// already-grown slabs instead of appending new ones; step never
		// dereferences old nodes, only Decode's traceback does.
		d.sc.arena.reset()
		d.step(emit)
	})
	if allocs != 0 {
		t.Fatalf("frame step allocates %v per op, want 0", allocs)
	}
}

// TestMaxActivePruningCapsActiveStates: a tiny MaxActive must bound the
// per-frame active set even with the beam wide open, and on strongly
// peaked emissions still recover the word sequence.
func TestMaxActivePruningCapsActiveStates(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	cfg.Beam = 1e9 // beam alone prunes nothing
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, frames := synthEmissions(g, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	nSen := len(g.Phones()) * StatesPerPhone

	cfg.MaxActive = 0
	dOpen, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	open := dOpen.Decode(frames)

	cfg.MaxActive = 4
	dCap, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped := dCap.Decode(frames)

	if capped.AvgActive >= open.AvgActive {
		t.Fatalf("MaxActive=4 avg active %.1f, not below unpruned %.1f", capped.AvgActive, open.AvgActive)
	}
	if strings.Join(capped.Words, " ") != "stop go" {
		t.Fatalf("capped decode = %q, want \"stop go\"", strings.Join(capped.Words, " "))
	}
}

// TestGenerousMaxActiveMatchesPureBeam: the default histogram cap is far
// above this graph's state count, so results must be identical to beam-
// only pruning.
func TestGenerousMaxActiveMatchesPureBeam(t *testing.T) {
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, frames := synthEmissions(g, []string{"k", "ow", "s", "t", "aa", "p"}, 3)
	nSen := len(g.Phones()) * StatesPerPhone

	beamOnly := cfg
	beamOnly.MaxActive = 0
	dBeam, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, beamOnly)
	if err != nil {
		t.Fatal(err)
	}
	dHist, err := NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rBeam := dBeam.Decode(frames)
	rHist := dHist.Decode(frames)
	if strings.Join(rBeam.Words, " ") != strings.Join(rHist.Words, " ") {
		t.Fatalf("histogram cap changed the result: %v vs %v", rHist.Words, rBeam.Words)
	}
	if rBeam.Score != rHist.Score {
		t.Fatalf("histogram cap changed the score: %v vs %v", rHist.Score, rBeam.Score)
	}
}

// TestDecoderScratchReuseAcrossDecodes: back-to-back decodes on one
// decoder must give identical results (the scratch fully resets).
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
	first := d.Decode(frames)
	for i := 0; i < 3; i++ {
		again := d.Decode(frames)
		if strings.Join(again.Words, " ") != strings.Join(first.Words, " ") || again.Score != first.Score {
			t.Fatalf("decode %d diverged: %v (%v) vs %v (%v)", i, again.Words, again.Score, first.Words, first.Score)
		}
	}
}
