package hmm

import (
	"math"
	"strings"
)

// Trigram is a word trigram language model with Jelinek-Mercer
// interpolation down to bigram, unigram and uniform levels. The decoding
// graph itself stays bigram (first-order state space); the trigram's job
// is N-best rescoring, the standard two-pass arrangement in production
// recognizers.
type Trigram struct {
	lex    *Lexicon
	uni    []float64
	bi     map[[2]int]float64
	tri    map[[3]int]float64
	biCtx  map[int]float64    // continuation counts per bigram context
	triCtx map[[2]int]float64 // continuation counts per trigram context
	total  float64
	// Interpolation weights (tri, bi, uni); the uniform floor gets the
	// remainder.
	L3, L2, L1 float64
}

// NewTrigram builds an untrained model over the lexicon vocabulary.
func NewTrigram(lex *Lexicon) *Trigram {
	return &Trigram{
		lex:    lex,
		uni:    make([]float64, lex.size()),
		bi:     map[[2]int]float64{},
		tri:    map[[3]int]float64{},
		biCtx:  map[int]float64{},
		triCtx: map[[2]int]float64{},
		L3:     0.6, L2: 0.25, L1: 0.12,
	}
}

// Observe adds one training sentence. Sentence boundaries are modeled
// with the implicit start context (-1, -1).
func (t *Trigram) Observe(sentence string) {
	w1, w2 := -1, -1
	for _, w := range strings.Fields(sentence) {
		idx := t.lex.index(normalizeWord(w))
		if idx < 0 {
			w1, w2 = -1, -1
			continue
		}
		t.uni[idx]++
		t.total++
		if w2 >= 0 {
			t.bi[[2]int{w2, idx}]++
			t.biCtx[w2]++
		}
		if w1 >= 0 && w2 >= 0 {
			t.tri[[3]int{w1, w2, idx}]++
			t.triCtx[[2]int{w1, w2}]++
		}
		w1, w2 = w2, idx
	}
}

// prob returns the interpolated P(w | w1, w2); w1/w2 may be -1 at
// sentence starts (the corresponding levels then contribute nothing).
func (t *Trigram) prob(w1, w2, w int) float64 {
	v := float64(t.lex.size())
	p := (1 - t.L3 - t.L2 - t.L1) / v
	if t.total > 0 {
		p += t.L1 * t.uni[w] / t.total
	}
	if w2 >= 0 {
		if c := t.biCtx[w2]; c > 0 {
			p += t.L2 * t.bi[[2]int{w2, w}] / c
		}
	}
	if w1 >= 0 && w2 >= 0 {
		if c := t.triCtx[[2]int{w1, w2}]; c > 0 {
			p += t.L3 * t.tri[[3]int{w1, w2, w}] / c
		}
	}
	return p
}

// score returns the log-probability of a word sequence (indices resolved
// through the lexicon; OOV words reset the context and contribute the
// uniform floor).
func (t *Trigram) score(words []string) float64 {
	var logp float64
	w1, w2 := -1, -1
	v := float64(t.lex.size())
	for _, w := range words {
		idx := t.lex.index(normalizeWord(w))
		if idx < 0 {
			logp += math.Log((1 - t.L3 - t.L2 - t.L1) / v)
			w1, w2 = -1, -1
			continue
		}
		logp += math.Log(t.prob(w1, w2, idx))
		w1, w2 = w2, idx
	}
	return logp
}

// Rescore reorders hypotheses by combined score: acoustic/decode score
// plus lmWeight times the trigram log-probability of the words. It
// returns the index of the winning hypothesis.
func (t *Trigram) Rescore(hyps []Result, lmWeight float64) int {
	best := -1
	bestScore := math.Inf(-1)
	for i, h := range hyps {
		s := h.Score + lmWeight*t.score(h.Words)
		if s > bestScore {
			bestScore = s
			best = i
		}
	}
	return best
}
