package hmm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
func constantRows(nSen, frames int) [][]float64 { return levelRows(nSen, frames, -1) }

// absorbingRows is constantRows at a level so low that adding any
// transition or LM weight to a score rounds back to the score itself:
// every live token in a frame ties with every other, so which one each
// state keeps is the tie rule alone, a word's two exits included.
func absorbingRows(nSen, frames int) [][]float64 { return levelRows(nSen, frames, -0x1p60) }

func levelRows(nSen, frames int, level float64) [][]float64 {
	rows := make([][]float64, frames)
	for f := range rows {
		rows[f] = make([]float64, nSen)
		for i := range rows[f] {
			rows[f][i] = level
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

// requireSameResult holds the search to the reference bit for bit: words,
// score and frame count.
func requireSameResult(t *testing.T, what string, want, got hmm.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Words, got.Words) || math.Float64bits(want.Score) != math.Float64bits(got.Score) || want.Frames != got.Frames {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
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

// diffSearch holds the search to the arc-by-arc reference: every state's
// token after every frame, then the finished hypothesis against the
// reference's own readout, words, score and frames, with the session
// advanced in chunks of 1, 7 and the whole utterance.
func diffSearch(t *testing.T, what string, tk task, rows [][]float64) {
	t.Helper()
	frames := frameIDs(len(rows))
	dec, err := hmm.NewDecoder(tk.g, &table{rows}, tk.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hmm.Lockstep(dec, tk.lm, frames); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := hmm.RefDecode(dec, tk.lm, frames)
	for _, chunk := range []int{1, 7, len(frames)} {
		s := dec.NewSession()
		for off := 0; off < len(frames); off += chunk {
			if err := s.Advance(context.Background(), frames[off:min(off+chunk, len(frames))]); err != nil {
				t.Fatal(err)
			}
		}
		got, ok := s.Finish()
		if !ok {
			t.Fatalf("%s chunk=%d: no hypothesis", what, chunk)
		}
		requireSameResult(t, fmt.Sprintf("%s chunk=%d", what, chunk), want, got)
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
// over, its words ending in silence tails, peaked, flat, constant and
// absorbing emissions all give the reference's tokens.
func TestNBestMatchesReferenceOnSeedGraph(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	seed := compile(t, lex, lm, hmm.DefaultConfig())
	nSen := seed.senones()
	diffSearch(t, "peaked", seed, peakedRows(seed.g, phonesOf(t, lex, "what", "is", "the", "capital", "of", "italy"), 2))
	diffSearch(t, "flat", seed, flatRows(rand.New(rand.NewSource(1)), nSen, 40))
	diffSearch(t, "constant", seed, constantRows(nSen, 30))
	diffSearch(t, "absorbing", seed, absorbingRows(nSen, 30))
	diffSearch(t, "flat, tight beam", seed.beam(6), flatRows(rand.New(rand.NewSource(2)), nSen, 40))
	// With an untrained LM every word is as likely as any other, so under
	// constant emissions whole families of paths tie exactly.
	uniform := compile(t, lex, hmm.NewBigram(lex), hmm.DefaultConfig())
	diffSearch(t, "constant, untrained LM", uniform, constantRows(nSen, 30))
}

// randomTask builds a small lexicon (some words share a pronunciation,
// so whole words tie), with SilenceWord when silence is set, and a bigram
// LM in one of five shapes: untrained,
// so every cross-word arc weighs the same and only arrival order
// separates equal paths; a few random sentences (a few seen bigrams
// above the smoothed weight every other pair shares); many (no clear
// mode); nearly every pair seen once, so the common weight is a seen
// one and the rare arcs lie below it; or every arc its own weight.
func randomTask(t *testing.T, rng *rand.Rand, shape int, silence bool) (*hmm.Lexicon, *hmm.Bigram) {
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
	if silence {
		lex.AddSilence()
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

// TestNBestMatchesReferenceOnRandomTasks sweeps random lexicons, without
// silence and then with it, and the five LM shapes under an open, a
// default and a tight beam.
func TestNBestMatchesReferenceOnRandomTasks(t *testing.T) {
	for seed := int64(0); seed < 90; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lex, lm := randomTask(t, rng, int(seed%5), seed >= 45)
		cfg := hmm.DefaultConfig()
		cfg.Beam = []float64{0, 200, 4}[seed%3]
		tk := compile(t, lex, lm, cfg)
		frames := 12 + rng.Intn(30)
		what := fmt.Sprintf("seed %d beam %v silence %v", seed, cfg.Beam, seed >= 45)
		diffSearch(t, what+" flat", tk, flatRows(rng, tk.senones(), frames))
		diffSearch(t, what+" constant", tk, constantRows(tk.senones(), frames))
		words := lex.Words()
		diffSearch(t, what+" peaked", tk, peakedRows(tk.g, phonesOf(t, lex, words[rng.Intn(len(words))], words[rng.Intn(len(words))]), 2))
	}
}

// TestNBestMatchesReferenceOnTies runs the shapes the tie rule (the
// lowest source state wins) exists for, where whole families of tokens tie
// and only the order they would have arrived in separates them:
// homophones (two words, one pronunciation, so every score is met twice),
// with and without silence tails (a word's two exits), lexicons of one and
// two words, and an LM with no common weight at all.
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
	silent := lexicon(st, st, aa)
	silent.AddSilence()
	pair := lexicon(aa, kow)
	pair.AddSilence()
	var everyPair []string
	for i := 0; i < 10; i++ {
		everyPair = append(everyPair, "w0 w1", "w1 w0", "w0 w0", "w1 w1")
	}
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
		{"homophones with silence, untrained", silent, hmm.NewBigram(silent)},
		{"homophones with silence, trained", silent, trained(silent, "w0 w1 w2", "w1 w0", "w2 w2 w1")},
		{"homophones with silence, distinct LM", silent, distinctLM(silent)},
		{"two words with silence, every pair seen", pair, trained(pair, everyPair...)},
	} {
		for _, beam := range []float64{0, 200, 3} {
			cfg := hmm.DefaultConfig()
			cfg.Beam = beam
			tk := compile(t, c.lex, c.lm, cfg)
			what := fmt.Sprintf("%s beam %v", c.name, beam)
			diffSearch(t, what+" constant", tk, constantRows(tk.senones(), 25))
			diffSearch(t, what+" absorbing", tk, absorbingRows(tk.senones(), 25))
			diffSearch(t, what+" flat", tk, flatRows(rand.New(rand.NewSource(7)), tk.senones(), 25))
			// Every prefix, most of them cut mid-word: where no token is
			// word-final the search falls back to completed-word histories.
			peaked := peakedRows(tk.g, phonesOf(t, c.lex, "w0", "w0", "w0"), 2)
			for cut := 1; cut <= len(peaked); cut++ {
				diffSearch(t, fmt.Sprintf("%s peaked, first %d frames", what, cut), tk, peaked[:cut])
			}
		}
	}
	// A word's two exits tie. Every senone scores so low that no
	// transition or LM weight survives the rounding, except that staying
	// in w0's first state at frames 1 and 2 costs 2^55 more. At frame 5
	// w0's bare exit (w0 entered at frame 3, after w0) and its tail exit
	// (w0 entered at frame 0) then hold equal scores and different
	// histories, and the bare exit, the lower state, must win: in the
	// readout after 6 frames, and at <sil>'s start in frame 6, where the
	// arc out of w0 is an exception.
	tail := lexicon(aa)
	tail.AddSilence()
	tailTask := compile(t, tail, trained(tail, "w0 w0"), hmm.DefaultConfig())
	tied := absorbingRows(tailTask.senones(), 8)
	a0 := slices.Index(tailTask.g.Phones(), "aa") * hmm.StatesPerPhone
	tied[1][a0] -= 0x1p55
	tied[2][a0] -= 0x1p55
	for cut := 1; cut <= len(tied); cut++ {
		diffSearch(t, fmt.Sprintf("a word's exits tie, first %d frames", cut), tailTask, tied[:cut])
	}
	// With every word pair seen, each arc into <sil> out of a word is an
	// exception below its base weight. At <sil>'s start the exits that
	// rank best by score + xBase are then sometimes all passed over, two
	// per word, and the first one past them wins: the ranking must hold
	// 1+2*maxExc candidates, and a few of these 100 draws need all five.
	everyPairTask := compile(t, pair, trained(pair, everyPair...), hmm.DefaultConfig())
	for draw := int64(0); draw < 100; draw++ {
		diffSearch(t, fmt.Sprintf("two words with silence, every pair seen, flat draw %d", draw), everyPairTask, flatRows(rand.New(rand.NewSource(draw)), everyPairTask.senones(), 25))
	}
	// The seed lexicon under the distinct LM: 83 words, every word start
	// passing over 82 sources.
	lex, _ := kb.BuildLexicon()
	dense := compile(t, lex, distinctLM(lex), hmm.DefaultConfig())
	diffSearch(t, "seed lexicon, distinct LM, flat", dense, flatRows(rand.New(rand.NewSource(3)), dense.senones(), 20))
	diffSearch(t, "seed lexicon, distinct LM, constant", dense, constantRows(dense.senones(), 20))
	diffSearch(t, "seed lexicon, distinct LM, absorbing", dense, absorbingRows(dense.senones(), 20))
}

// TestNBestPooledScratchAcrossUtterances: sessions on one graph hand one
// scratch on to the next, so what an utterance that filled every state
// left behind must not show in a sparse one after it (nor the reverse).
// The beam is open: a leftover token scores what an utterance's end does,
// far below anything in the first frames of the next, and a beam would
// hide it.
func TestNBestPooledScratchAcrossUtterances(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	tk := compile(t, lex, lm, hmm.DefaultConfig()).beam(0)
	utterances := [][][]float64{
		flatRows(rand.New(rand.NewSource(4)), tk.senones(), 40),
		peakedRows(tk.g, phonesOf(t, lex, "call", "mom"), 2),
		constantRows(tk.senones(), 12),
		peakedRows(tk.g, phonesOf(t, lex, "what", "is", "the", "capital", "of", "italy"), 1),
	}
	for round := 0; round < 2; round++ {
		for i, rows := range utterances {
			dec, err := hmm.NewDecoder(tk.g, &table{rows}, tk.cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames := frameIDs(len(rows))
			requireSameResult(t, fmt.Sprintf("round %d utterance %d", round, i), hmm.RefDecode(dec, tk.lm, frames), dec.Decode(frames))
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
// copy) over the seed lexicon, its words ending in silence tails: peaked
// is the GMM-shaped case where the beam leaves few states live, flat the
// DNN-shaped one where every state holds a token every frame, and
// dense-lm is flat under an LM with no common weight, where factoring
// saves nothing and every word start goes through V-1 exception sources:
// the search must then cost what sending every token down every arc did,
// not more.
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
		b.Run(c.name, func(b *testing.B) {
			dec, err := hmm.NewDecoder(c.tk.g, &table{c.rows}, c.tk.cfg)
			if err != nil {
				b.Fatal(err)
			}
			frames := frameIDs(len(c.rows))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := dec.NewSession()
				if err := s.Advance(context.Background(), frames); err != nil {
					b.Fatal(err)
				}
				if _, ok := s.Finish(); !ok {
					b.Fatal("no hypothesis")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
		})
	}
}
