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
// first element.
type table struct{ rows [][]float64 }

func (ts *table) ScoreAll(dst, frame []float64) { copy(dst, ts.rows[int(frame[0])]) }
func (ts *table) NumSenones() int               { return len(ts.rows[0]) }

// batchTable hands the search its rows themselves, as the recognizer's
// batch path does, so a search that wrote into a row would corrupt the
// next run over the same table.
type batchTable struct{ table }

func (ts *batchTable) ScoreAllBatch(frames [][]float64) [][]float64 {
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
// words, order, scores, and the confidence metadata derived from them.
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
		if math.Float64bits(w.Confidence) != math.Float64bits(g.Confidence) || w.RunnerUp != g.RunnerUp || w.Frames != g.Frames {
			t.Fatalf("%s: hyp %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// diffNBest holds the session to the reference for n of 1 and 4: every
// state's list after every frame, then the finished n-best with the
// session advanced in chunks of 1, 7 and the whole utterance through
// both the per-frame and the batch scoring path.
func diffNBest(t *testing.T, what string, g *hmm.Graph, cfg hmm.Config, rows [][]float64) {
	t.Helper()
	frames := frameIDs(len(rows))
	for _, n := range []int{1, 4} {
		ref, err := hmm.NewDecoder(g, &table{rows}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := hmm.LockstepNBest(ref, frames, n); err != nil {
			t.Fatalf("%s n=%d: %v", what, n, err)
		}
		want := hmm.RefDecodeNBest(ref, frames, n)
		if len(want) == 0 {
			t.Fatalf("%s n=%d: reference found no hypothesis", what, n)
		}
		for _, scorer := range []hmm.Scorer{&table{rows}, &batchTable{table{rows}}} {
			dec, err := hmm.NewDecoder(g, scorer, cfg)
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
				requireSameNBest(t, fmt.Sprintf("%s n=%d chunk=%d %T", what, n, chunk, scorer), want, s.Finish())
			}
		}
	}
}

// TestNBestMatchesReferenceOnSeedGraph: on the graph the server decodes
// over, peaked, flat and constant emissions all give the reference's
// n-best lists.
func TestNBestMatchesReferenceOnSeedGraph(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	cfg := hmm.DefaultConfig()
	g, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * hmm.StatesPerPhone
	diffNBest(t, "peaked", g, cfg, peakedRows(g, phonesOf(t, lex, "what", "is", "the", "capital", "of", "italy"), 2))
	diffNBest(t, "flat", g, cfg, flatRows(rand.New(rand.NewSource(1)), nSen, 40))
	diffNBest(t, "constant", g, cfg, constantRows(nSen, 30))
	tight := cfg
	tight.Beam = 6
	diffNBest(t, "flat, tight beam", g, tight, flatRows(rand.New(rand.NewSource(2)), nSen, 40))
	// With an untrained LM every word is as likely as any other, so under
	// constant emissions whole families of paths tie exactly.
	uniform, err := hmm.CompileGraph(lex, hmm.NewBigram(lex), cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffNBest(t, "constant, untrained LM", uniform, cfg, constantRows(nSen, 30))
}

// randomTask builds a small lexicon (some words share a pronunciation,
// so whole words tie) and a bigram LM in one of four shapes: untrained,
// so every cross-word arc weighs the same and only arrival order
// separates equal paths; a few random sentences (a few seen bigrams
// above the smoothed weight every other pair shares); many (no clear
// mode); or nearly every pair seen once, so the common weight is a seen
// one and the rare arcs lie below it.
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
	}
	return lex, lm
}

// TestNBestMatchesReferenceOnRandomTasks sweeps random lexicons and the
// four LM shapes under an open, a default and a tight beam.
func TestNBestMatchesReferenceOnRandomTasks(t *testing.T) {
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lex, lm := randomTask(t, rng, int(seed%4))
		cfg := hmm.DefaultConfig()
		cfg.Beam = []float64{0, 200, 4}[seed%3]
		g, err := hmm.CompileGraph(lex, lm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nSen := len(g.Phones()) * hmm.StatesPerPhone
		frames := 12 + rng.Intn(30)
		what := fmt.Sprintf("seed %d beam %v", seed, cfg.Beam)
		diffNBest(t, what+" flat", g, cfg, flatRows(rng, nSen, frames))
		diffNBest(t, what+" constant", g, cfg, constantRows(nSen, frames))
		words := lex.Words()
		diffNBest(t, what+" peaked", g, cfg, peakedRows(g, phonesOf(t, lex, words[rng.Intn(len(words))], words[rng.Intn(len(words))]), 2))
	}
}

// BenchmarkNBestAdvance times the n-best search alone (table scoring is
// a row copy) over the seed graph at the recognizer's n: peaked is the
// GMM-shaped case where the beam leaves few states live, flat the
// DNN-shaped one where every state holds k tokens every frame.
func BenchmarkNBestAdvance(b *testing.B) {
	lex, lm := kb.BuildLexicon()
	cfg := hmm.DefaultConfig()
	g, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	nSen := len(g.Phones()) * hmm.StatesPerPhone
	for _, c := range []struct {
		name string
		rows [][]float64
	}{
		{"peaked", peakedRows(g, phonesOf(b, lex, "what", "is", "the", "capital", "of", "italy"), 3)},
		{"flat", flatRows(rand.New(rand.NewSource(1)), nSen, 150)},
	} {
		b.Run(c.name, func(b *testing.B) {
			dec, err := hmm.NewDecoder(g, &table{c.rows}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			frames := frameIDs(len(c.rows))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := dec.NewNBestSession(4)
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
