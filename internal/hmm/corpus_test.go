package hmm_test

import (
	"math"
	"testing"

	"sirius/internal/kb"
)

// TestCorpusBigramPerplexityFinite: the bigram the knowledge base builds
// gives every query of the input set a finite perplexity.
func TestCorpusBigramPerplexityFinite(t *testing.T) {
	_, lm := kb.BuildLexicon()
	for _, q := range kb.AllQueries() {
		if pp := lm.Perplexity(q.Text); pp <= 0 || math.IsInf(pp, 1) {
			t.Errorf("perplexity of %q = %v", q.Text, pp)
		}
	}
}
