package hmm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sirius/internal/hmm"
	"sirius/internal/kb"
)

// table scores senones from fixed rows: a frame names its row in its
// first element. It hands the search the rows themselves, as the
// recognizer's scorer does, so a search that wrote into a row would
// corrupt the next run over the same table.
type table struct{ rows [][]float64 }

func (ts *table) NumSenones() int { return len(ts.rows[0]) }

func (ts *table) Score(_ context.Context, frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = ts.rows[int(f[0])]
	}
	return out
}

func frameIDs(n int) [][]float64 {
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = []float64{float64(i)}
	}
	return frames
}

// peakedRows favors, frame by frame, the senones of the phone sequence
// (perState frames in each of a phone's states): what a well-trained GMM
// looks like to the search.
func peakedRows(g *hmm.Graph, phones []string, perState int) [][]float64 {
	idx := map[string]int{}
	for i, p := range g.Phones() {
		idx[p] = i
	}
	nSen := len(g.Phones()) * hmm.StatesPerPhone
	var rows [][]float64
	for _, ph := range phones {
		for s := 0; s < hmm.StatesPerPhone; s++ {
			for r := 0; r < perState; r++ {
				row := make([]float64, nSen)
				for i := range row {
					row[i] = -20
				}
				row[idx[ph]*hmm.StatesPerPhone+s] = -1
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// flatRows draws every senone from a band far narrower than the beam, so
// nothing is pruned and every word end competes at every word start: the
// shape of the seed DNN's posteriors. Scores come from a few levels, so
// equal sums are common.
func flatRows(rng *rand.Rand, nSen, frames int) [][]float64 {
	rows := make([][]float64, frames)
	for f := range rows {
		rows[f] = make([]float64, nSen)
		for i := range rows[f] {
			rows[f][i] = -3 - 0.25*float64(rng.Intn(8))
		}
	}
	return rows
}

// constantRows makes every senone score the same in every frame: paths
// differ only by their LM weights, most tie, and the survivors are
// whatever the tie rule (the earlier arrival stays ahead) says.
func constantRows(nSen, frames int) [][]float64 {
	rows := make([][]float64, frames)
	for f := range rows {
		rows[f] = make([]float64, nSen)
		for i := range rows[f] {
			rows[f][i] = -1
		}
	}
	return rows
}

func phonesOf(t testing.TB, lex *hmm.Lexicon, words ...string) []string {
	t.Helper()
	var phones []string
	for _, w := range words {
		p, err := lex.Pron(w)
		if err != nil {
			t.Fatal(err)
		}
		phones = append(phones, p...)
	}
	return phones
}

// requireSameNBest holds the search to the reference bit for bit:
// words, order, scores and frame counts.
func requireSameNBest(t *testing.T, what string, want, got []hmm.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hypotheses, want %d", what, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(w.Words, g.Words) {
			t.Fatalf("%s: hyp %d words = %v, want %v", what, i, g.Words, w.Words)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: hyp %d score = %v, want %v", what, i, g.Score, w.Score)
		}
		if w.Frames != g.Frames {
			t.Fatalf("%s: hyp %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// task is a compiled graph with the LM and settings it was compiled
// from, which the references need to weigh the dense graph's arcs
// themselves.
type task struct {
	g   *hmm.Graph
	lm  *hmm.Bigram
	cfg hmm.Config
}

func compile(t testing.TB, lex *hmm.Lexicon, lm *hmm.Bigram, cfg hmm.Config) task {
	t.Helper()
	g, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return task{g, lm, cfg}
}

func (tk task) senones() int { return len(tk.g.Phones()) * hmm.StatesPerPhone }

// beam is the task searched under another beam.
func (tk task) beam(b float64) task {
	tk.cfg.Beam = b
	return tk
}

// diffNBest holds the search to its references. For n of 1, 4 and 8 (1, 6
// and 10 tokens per state): every state's list after every frame, then the
// finished n-best with the session advanced in chunks of 1, 7 and the
// whole utterance through both the per-frame and the batch scoring path.
// And the 1-best decode, n = 1, to the arc-by-arc Viterbi reference and
// its own hypothesis selection: words, score and frames.
func diffNBest(t *testing.T, what string, tk task, rows [][]float64) {
	t.Helper()
	g, cfg := tk.g, tk.cfg
	frames := frameIDs(len(rows))
	dec, err := hmm.NewDecoder(g, &table{rows}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameNBest(t, what+" 1-best", []hmm.Result{hmm.RefDecode(dec, tk.lm, frames)}, dec.DecodeNBest(frames, 1))
	for _, n := range []int{1, 4, 8} {
		ref, err := hmm.NewDecoder(g, &table{rows}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := hmm.LockstepNBest(ref, tk.lm, frames, n); err != nil {
			t.Fatalf("%s n=%d: %v", what, n, err)
		}
		want := hmm.RefDecodeNBest(ref, tk.lm, frames, n)
		if len(want) == 0 {
			t.Fatalf("%s n=%d: reference found no hypothesis", what, n)
		}
		dec, err := hmm.NewDecoder(g, &table{rows}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, len(frames)} {
			s := dec.NewNBestSession(n)
			for off := 0; off < len(frames); off += chunk {
				if err := s.Advance(context.Background(), frames[off:min(off+chunk, len(frames))]); err != nil {
					t.Fatal(err)
				}
			}
			requireSameNBest(t, fmt.Sprintf("%s n=%d chunk=%d", what, n, chunk), want, s.Finish())
		}
	}
}

// distinctLM is a bigram LM under which no two cross-word arcs out of a
// word weigh the same: after wi, each wj has been seen a number of times
// all its own. No weight is then more common than another, and all but
// one arc per source is an exception.
func distinctLM(lex *hmm.Lexicon) *hmm.Bigram {
	lm := hmm.NewBigram(lex)
	words := lex.Words()
	for wi, a := range words {
		for wj, b := range words {
			for c := 0; c <= (wi+wj)%len(words); c++ {
				lm.Observe(a + " " + b)
			}
		}
	}
	return lm
}

// TestNBestMatchesReferenceOnSeedGraph: on the graph the server decodes
// over, peaked, flat and constant emissions all give the references'
// tokens.
func TestNBestMatchesReferenceOnSeedGraph(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	seed := compile(t, lex, lm, hmm.DefaultConfig())
	nSen := seed.senones()
	diffNBest(t, "peaked", seed, peakedRows(seed.g, phonesOf(t, lex, "what", "is", "the", "capital", "of", "italy"), 2))
	diffNBest(t, "flat", seed, flatRows(rand.New(rand.NewSource(1)), nSen, 40))
	diffNBest(t, "constant", seed, constantRows(nSen, 30))
	diffNBest(t, "flat, tight beam", seed.beam(6), flatRows(rand.New(rand.NewSource(2)), nSen, 40))
	// With an untrained LM every word is as likely as any other, so under
	// constant emissions whole families of paths tie exactly.
	uniform := compile(t, lex, hmm.NewBigram(lex), hmm.DefaultConfig())
	diffNBest(t, "constant, untrained LM", uniform, constantRows(nSen, 30))
}

// randomTask builds a small lexicon (some words share a pronunciation,
// so whole words tie) and a bigram LM in one of five shapes: untrained,
// so every cross-word arc weighs the same and only arrival order
// separates equal paths; a few random sentences (a few seen bigrams
// above the smoothed weight every other pair shares); many (no clear
// mode); nearly every pair seen once, so the common weight is a seen
// one and the rare arcs lie below it; or every arc its own weight.
func randomTask(t *testing.T, rng *rand.Rand, shape int) (*hmm.Lexicon, *hmm.Bigram) {
	t.Helper()
	pool := []string{"aa", "iy", "uw", "s", "t", "k", "m", "n"}
	lex := hmm.NewLexicon()
	vocab := 2 + rng.Intn(11)
	var prons [][]string
	for w := 0; w < vocab; w++ {
		var pron []string
		if w > 0 && rng.Intn(4) == 0 {
			pron = prons[rng.Intn(len(prons))]
		} else {
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				pron = append(pron, pool[rng.Intn(len(pool))])
			}
		}
		prons = append(prons, pron)
		lex.Add(fmt.Sprintf("w%d", w), pron)
	}
	lm := hmm.NewBigram(lex)
	switch shape {
	case 1, 2:
		for i, n := 0, vocab*(shape*shape); i < n; i++ {
			sentence := ""
			for j, m := 0, 2+rng.Intn(4); j < m; j++ {
				sentence += fmt.Sprintf("w%d ", rng.Intn(vocab))
			}
			lm.Observe(sentence)
		}
	case 3:
		for wi := 0; wi < vocab; wi++ {
			for wj := 0; wj < vocab; wj++ {
				if rng.Intn(6) > 0 {
					lm.Observe(fmt.Sprintf("w%d w%d", wi, wj))
				}
			}
		}
	case 4:
		lm = distinctLM(lex)
	}
	return lex, lm
}

// TestNBestMatchesReferenceOnRandomTasks sweeps random lexicons and the
// five LM shapes under an open, a default and a tight beam.
func TestNBestMatchesReferenceOnRandomTasks(t *testing.T) {
	for seed := int64(0); seed < 45; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lex, lm := randomTask(t, rng, int(seed%5))
		cfg := hmm.DefaultConfig()
		cfg.Beam = []float64{0, 200, 4}[seed%3]
		tk := compile(t, lex, lm, cfg)
		frames := 12 + rng.Intn(30)
		what := fmt.Sprintf("seed %d beam %v", seed, cfg.Beam)
		diffNBest(t, what+" flat", tk, flatRows(rng, tk.senones(), frames))
		diffNBest(t, what+" constant", tk, constantRows(tk.senones(), frames))
		words := lex.Words()
		diffNBest(t, what+" peaked", tk, peakedRows(tk.g, phonesOf(t, lex, words[rng.Intn(len(words))], words[rng.Intn(len(words))]), 2))
	}
}

// TestNBestMatchesReferenceOnTies runs the shapes the (score, seq) order
// exists for, where whole families of tokens tie and only the order they
// would have arrived in separates them: homophones (two words, one
// pronunciation, so every score is met twice), lexicons of one and two
// words, and an LM with no common weight at all.
func TestNBestMatchesReferenceOnTies(t *testing.T) {
	lexicon := func(prons ...[]string) *hmm.Lexicon {
		lex := hmm.NewLexicon()
		for i, p := range prons {
			lex.Add(fmt.Sprintf("w%d", i), p)
		}
		return lex
	}
	trained := func(lex *hmm.Lexicon, sentences ...string) *hmm.Bigram {
		lm := hmm.NewBigram(lex)
		for _, s := range sentences {
			lm.Observe(s)
		}
		return lm
	}
	st, aa, kow := []string{"s", "t"}, []string{"aa"}, []string{"k", "ow"}
	homophones := lexicon(st, st)
	three := lexicon(st, aa, st, kow, aa)
	for _, c := range []struct {
		name string
		lex  *hmm.Lexicon
		lm   *hmm.Bigram
	}{
		{"one word", lexicon(kow), hmm.NewBigram(lexicon(kow))},
		{"one word, trained", lexicon(aa), trained(lexicon(aa), "w0 w0 w0")},
		{"two words", lexicon(aa, kow), trained(lexicon(aa, kow), "w0 w1", "w1 w1")},
		{"homophones, untrained", homophones, hmm.NewBigram(homophones)},
		{"homophones, trained", homophones, trained(homophones, "w0 w1 w0", "w1 w1")},
		{"homophones among others", three, trained(three, "w0 w1 w2", "w2 w3 w4 w0", "w4 w4")},
		{"homophones, distinct LM", three, distinctLM(three)},
	} {
		for _, beam := range []float64{0, 200, 3} {
			cfg := hmm.DefaultConfig()
			cfg.Beam = beam
			tk := compile(t, c.lex, c.lm, cfg)
			what := fmt.Sprintf("%s beam %v", c.name, beam)
			diffNBest(t, what+" constant", tk, constantRows(tk.senones(), 25))
			diffNBest(t, what+" flat", tk, flatRows(rand.New(rand.NewSource(7)), tk.senones(), 25))
			// Every prefix, most of them cut mid-word: where no token is
			// word-final the search falls back to completed-word histories.
			peaked := peakedRows(tk.g, phonesOf(t, c.lex, "w0", "w0", "w0"), 2)
			for cut := 1; cut <= len(peaked); cut++ {
				diffNBest(t, fmt.Sprintf("%s peaked, first %d frames", what, cut), tk, peaked[:cut])
			}
		}
	}
	// The seed lexicon under the distinct LM: 83 words, every word start
	// passing over 82 sources.
	lex, _ := kb.BuildLexicon()
	dense := compile(t, lex, distinctLM(lex), hmm.DefaultConfig())
	diffNBest(t, "seed lexicon, distinct LM, flat", dense, flatRows(rand.New(rand.NewSource(3)), dense.senones(), 20))
	diffNBest(t, "seed lexicon, distinct LM, constant", dense, constantRows(dense.senones(), 20))
}

// TestNBestPooledScratchAcrossUtterances: sessions on one graph hand one
// scratch on to the next, so what an utterance that filled every state
// left behind must not show in a sparse one after it (nor the reverse),
// for the 1-best as for the n-best. The beam is open: a leftover token
// scores what an utterance's end does, far below anything in the first
// frames of the next, and a beam would hide it.
func TestNBestPooledScratchAcrossUtterances(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	tk := compile(t, lex, lm, hmm.DefaultConfig()).beam(0)
	utterances := [][][]float64{
		flatRows(rand.New(rand.NewSource(4)), tk.senones(), 40),
		peakedRows(tk.g, phonesOf(t, lex, "call", "mom"), 2),
		constantRows(tk.senones(), 12),
		peakedRows(tk.g, phonesOf(t, lex, "what", "is", "the", "capital", "of", "italy"), 1),
	}
	for _, n := range []int{1, 4} {
		for round := 0; round < 2; round++ {
			for i, rows := range utterances {
				dec, err := hmm.NewDecoder(tk.g, &table{rows}, tk.cfg)
				if err != nil {
					t.Fatal(err)
				}
				frames := frameIDs(len(rows))
				want := hmm.RefDecodeNBest(dec, tk.lm, frames, n)
				requireSameNBest(t, fmt.Sprintf("n=%d round %d utterance %d", n, round, i), want, dec.DecodeNBest(frames, n))
			}
		}
	}
}

// TestGraphFactoringExact: base plus exceptions give back every dense
// cross-word weight bit for bit, for the seed LM, an untrained one (no
// exceptions at all) and one with no two weights alike (V-1 exceptions
// out of every word), and exception lists are sorted by source.
func TestGraphFactoringExact(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	v := lex.Size()
	cfg := hmm.DefaultConfig()
	for _, c := range []struct {
		name       string
		lm         *hmm.Bigram
		exceptions func(n int) bool
	}{
		{"seed", lm, func(n int) bool { return n > 0 && n < v*v/10 }},
		{"untrained", hmm.NewBigram(lex), func(n int) bool { return n == 0 }},
		{"distinct", distinctLM(lex), func(n int) bool { return n == v*(v-1) }},
	} {
		tk := compile(t, lex, c.lm, cfg)
		n, err := hmm.CheckFactoring(tk.g, tk.lm, tk.cfg)
		if err != nil {
			t.Fatalf("%s LM: %v", c.name, err)
		}
		if !c.exceptions(n) {
			t.Fatalf("%s LM: %d of %d cross-word arcs are exceptions", c.name, n, v*v)
		}
	}
}

// BenchmarkNBestAdvance times the search alone (table scoring is a row
// copy) over the seed lexicon at the 1-best's n and the rescoring
// recognizer's: peaked is the
// GMM-shaped case where the beam leaves few states live, flat the
// DNN-shaped one where every state holds k tokens every frame, and
// dense-lm is flat under an LM with no common weight, where factoring
// saves nothing and every word start goes through V-1 exception sources:
// the search must then cost what sending every token down every arc
// did (flat before the arcs were factored: 296 us/frame), not more.
func BenchmarkNBestAdvance(b *testing.B) {
	lex, lm := kb.BuildLexicon()
	seed := compile(b, lex, lm, hmm.DefaultConfig())
	dense := compile(b, lex, distinctLM(lex), hmm.DefaultConfig())
	flat := flatRows(rand.New(rand.NewSource(1)), seed.senones(), 150)
	for _, c := range []struct {
		name string
		tk   task
		rows [][]float64
	}{
		{"peaked", seed, peakedRows(seed.g, phonesOf(b, lex, "what", "is", "the", "capital", "of", "italy"), 3)},
		{"flat", seed, flat},
		{"dense-lm", dense, flat},
	} {
		for _, n := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				dec, err := hmm.NewDecoder(c.tk.g, &table{c.rows}, c.tk.cfg)
				if err != nil {
					b.Fatal(err)
				}
				frames := frameIDs(len(c.rows))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := dec.NewNBestSession(n)
					if err := s.Advance(context.Background(), frames); err != nil {
						b.Fatal(err)
					}
					if len(s.Finish()) == 0 {
						b.Fatal("no hypotheses")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
			})
		}
	}
}
