package hmm

import (
	"math"
	"strings"
)

// Bigram is a word bigram language model with add-one smoothing,
// trained on the query corpus. It supplies the cross-word transition
// weights in the decoding graph.
type Bigram struct {
	lex *Lexicon
	// contCount[w] counts occurrences of w that were followed by another
	// in-vocabulary word; it is the correct bigram denominator (using the
	// raw unigram count would leak mass at sentence ends).
	contCount []float64
	biCount   map[[2]int]float64
	// startCount counts sentence-initial words.
	startCount []float64
	startTotal float64
}

// NewBigram builds an untrained model over the lexicon vocabulary.
func NewBigram(lex *Lexicon) *Bigram {
	return &Bigram{
		lex:        lex,
		contCount:  make([]float64, lex.size()),
		biCount:    make(map[[2]int]float64),
		startCount: make([]float64, lex.size()),
	}
}

// Observe adds one training sentence (whitespace-separated words). Words
// outside the vocabulary are skipped.
func (b *Bigram) Observe(sentence string) {
	prev := -1
	for _, w := range strings.Fields(sentence) {
		idx := b.lex.index(normalizeWord(w))
		if idx < 0 {
			prev = -1
			continue
		}
		if prev < 0 {
			b.startCount[idx]++
			b.startTotal++
		} else {
			b.biCount[[2]int{prev, idx}]++
			b.contCount[prev]++
		}
		prev = idx
	}
}

func normalizeWord(w string) string {
	return strings.Trim(strings.ToLower(w), ".,?!\"'")
}

// logProb returns log P(next | prev) with add-one smoothing over the
// vocabulary. prev == -1 means sentence start.
func (b *Bigram) logProb(prev, next int) float64 {
	v := float64(b.lex.size())
	if prev < 0 {
		return math.Log((b.startCount[next] + 1) / (b.startTotal + v))
	}
	return math.Log((b.biCount[[2]int{prev, next}] + 1) / (b.contCount[prev] + v))
}
