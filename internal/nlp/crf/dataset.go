package crf

import (
	"math/rand"
	"strconv"
)

// The paper trains its CRF kernel on the CoNLL-2000 shared-task chunking
// data, which cannot be redistributed here. This generator produces a
// synthetic stand-in: sentences drawn from a small phrase grammar with
// gold part-of-speech and BIO chunk annotations. The label structure
// (B-NP/I-NP/B-VP/B-PP/O, POS classes) and feature statistics match the
// shape of the original task closely enough to exercise the same training
// and decoding code paths.

// Sample is one annotated sentence.
type Sample struct {
	Tokens []string
	POS    []string // DET, ADJ, NOUN, PROPN, VERB, ADP, NUM, ADV
	Chunks []string // B-NP, I-NP, B-VP, I-VP, B-PP, O
}

var (
	determiners  = []string{"the", "a", "this", "that", "every"}
	adjectives   = []string{"big", "small", "red", "quick", "famous", "old", "new", "tall"}
	nouns        = []string{"cat", "dog", "president", "city", "river", "book", "capital", "author", "restaurant", "mountain", "country", "company"}
	properNouns  = []string{"Paris", "Obama", "Amazon", "Everest", "Italy", "Rowling", "Cuba", "Vegas", "Nile", "Tokyo"}
	verbs        = []string{"sees", "likes", "visits", "wrote", "elected", "founded", "crosses", "borders", "owns", "reads"}
	prepositions = []string{"in", "on", "near", "with", "from", "of"}
	adverbs      = []string{"quickly", "often", "never", "always"}
	numberWords  = []string{"one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}
)

// NumberWords exposes the word-form numerals the generator tags as NUM;
// the QA answer-type filters treat them as numeric candidates.
func NumberWords() []string { return append([]string(nil), numberWords...) }

// Generate produces n annotated sentences with the given seed.
func Generate(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		out[i] = genSentence(rng)
	}
	return out
}

func pick(rng *rand.Rand, words []string) string { return words[rng.Intn(len(words))] }

func genSentence(rng *rand.Rand) Sample {
	var s Sample
	add := func(tok, pos, chunk string) {
		s.Tokens = append(s.Tokens, tok)
		s.POS = append(s.POS, pos)
		s.Chunks = append(s.Chunks, chunk)
	}
	np := func() {
		switch rng.Intn(3) {
		case 0: // Det (Adj)* Noun
			add(pick(rng, determiners), "DET", "B-NP")
			for rng.Intn(2) == 0 {
				add(pick(rng, adjectives), "ADJ", "I-NP")
			}
			add(pick(rng, nouns), "NOUN", "I-NP")
		case 1: // Proper noun
			add(pick(rng, properNouns), "PROPN", "B-NP")
		case 2: // Number + noun ("3 books" / "three books")
			if rng.Intn(2) == 0 {
				add(strconv.Itoa(1+rng.Intn(99)), "NUM", "B-NP")
			} else {
				add(pick(rng, numberWords), "NUM", "B-NP")
			}
			add(pick(rng, nouns)+"s", "NOUN", "I-NP")
		}
	}
	vp := func() {
		add(pick(rng, verbs), "VERB", "B-VP")
		if rng.Intn(4) == 0 {
			add(pick(rng, adverbs), "ADV", "O")
		}
	}
	pp := func() {
		add(pick(rng, prepositions), "ADP", "B-PP")
		np()
	}
	// S -> NP VP NP (PP)?
	np()
	vp()
	np()
	if rng.Intn(2) == 0 {
		pp()
	}
	return s
}

// TokensAndTags converts samples to the parallel slices Train consumes,
// selecting either POS or chunk annotations.
func TokensAndTags(samples []Sample, useChunks bool) (sentences [][]string, tags [][]string) {
	for _, s := range samples {
		sentences = append(sentences, s.Tokens)
		if useChunks {
			tags = append(tags, s.Chunks)
		} else {
			tags = append(tags, s.POS)
		}
	}
	return sentences, tags
}
