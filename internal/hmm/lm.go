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
		contCount:  make([]float64, lex.Size()),
		biCount:    make(map[[2]int]float64),
		startCount: make([]float64, lex.Size()),
	}
}

// Observe adds one training sentence (whitespace-separated words). Words
// outside the vocabulary are skipped.
func (b *Bigram) Observe(sentence string) {
	prev := -1
	for _, w := range strings.Fields(sentence) {
		idx := b.lex.Index(normalizeWord(w))
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

// LogProb returns log P(next | prev) with add-one smoothing over the
// vocabulary. prev == -1 means sentence start.
func (b *Bigram) LogProb(prev, next int) float64 {
	v := float64(b.lex.Size())
	if prev < 0 {
		return math.Log((b.startCount[next] + 1) / (b.startTotal + v))
	}
	return math.Log((b.biCount[[2]int{prev, next}] + 1) / (b.contCount[prev] + v))
}

// Perplexity evaluates the model on a sentence (for tests and tuning).
func (b *Bigram) Perplexity(sentence string) float64 {
	prev := -1
	var logp float64
	var n int
	for _, w := range strings.Fields(sentence) {
		idx := b.lex.Index(normalizeWord(w))
		if idx < 0 {
			continue
		}
		logp += b.LogProb(prev, idx)
		prev = idx
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logp / float64(n))
}
