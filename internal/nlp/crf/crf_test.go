package crf

import (
	"math"
	"testing"

	"sirius/internal/mat"
)

func accuracy(t *Tagger, samples []Sample, useChunks bool) float64 {
	correct, total := 0, 0
	for _, s := range samples {
		gold := s.POS
		if useChunks {
			gold = s.Chunks
		}
		got := t.Tag(s.Tokens)
		for i := range gold {
			total++
			if got[i] == gold[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}

func TestGenerateShape(t *testing.T) {
	samples := Generate(50, 3)
	if len(samples) != 50 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if len(s.Tokens) == 0 || len(s.Tokens) != len(s.POS) || len(s.Tokens) != len(s.Chunks) {
			t.Fatalf("ragged sample: %+v", s)
		}
		// BIO validity: I-X must follow B-X or I-X.
		for i, c := range s.Chunks {
			if len(c) > 1 && c[0] == 'I' {
				if i == 0 {
					t.Fatalf("I- chunk at sentence start: %v", s.Chunks)
				}
				prev := s.Chunks[i-1]
				if prev != "B"+c[1:] && prev != c {
					t.Fatalf("invalid BIO: %v", s.Chunks)
				}
			}
		}
	}
	// Determinism.
	again := Generate(50, 3)
	for i := range samples {
		for j := range samples[i].Tokens {
			if samples[i].Tokens[j] != again[i].Tokens[j] {
				t.Fatal("Generate must be deterministic for a seed")
			}
		}
	}
}

func TestTrainLearnsPOS(t *testing.T) {
	samples := Generate(300, 7)
	train, test := samples[:240], samples[240:]
	sents, tags := TokensAndTags(train, false)
	tagger := Train(sents, tags, DefaultTrainConfig())
	if acc := accuracy(tagger, test, false); acc < 0.95 {
		t.Fatalf("POS accuracy %.3f < 0.95", acc)
	}
}

func TestTrainLearnsChunks(t *testing.T) {
	samples := Generate(300, 11)
	train, test := samples[:240], samples[240:]
	sents, tags := TokensAndTags(train, true)
	tagger := Train(sents, tags, DefaultTrainConfig())
	if acc := accuracy(tagger, test, true); acc < 0.9 {
		t.Fatalf("chunk accuracy %.3f < 0.9", acc)
	}
}

func TestTrainingIncreasesLikelihood(t *testing.T) {
	samples := Generate(100, 5)
	sents, tags := TokensAndTags(samples, false)
	cfgShort := DefaultTrainConfig()
	cfgShort.Epochs = 1
	cfgLong := DefaultTrainConfig()
	cfgLong.Epochs = 8
	short := Train(sents, tags, cfgShort)
	long := Train(sents, tags, cfgLong)
	var llShort, llLong float64
	for i := range sents {
		llShort += short.LogLikelihood(sents[i], tags[i])
		llLong += long.LogLikelihood(sents[i], tags[i])
	}
	if llLong <= llShort {
		t.Fatalf("more epochs must raise training likelihood: %v vs %v", llShort, llLong)
	}
	if llLong > 0 {
		t.Fatalf("log-likelihood must be <= 0, got %v", llLong)
	}
}

func TestLogLikelihoodUnknownLabel(t *testing.T) {
	samples := Generate(20, 5)
	sents, tags := TokensAndTags(samples, false)
	tagger := Train(sents, tags, TrainConfig{Epochs: 1, LearningRate: 0.1, Seed: 1})
	if !math.IsInf(tagger.LogLikelihood([]string{"the"}, []string{"NOT_A_LABEL"}), -1) {
		t.Fatal("unknown gold label must give -Inf")
	}
}

func TestTagEmptyAndUnknownTokens(t *testing.T) {
	samples := Generate(50, 5)
	sents, tags := TokensAndTags(samples, false)
	tagger := Train(sents, tags, DefaultTrainConfig())
	if got := tagger.Tag(nil); got != nil {
		t.Fatal("empty input must return nil")
	}
	// Unseen tokens still receive some label (no panic, full coverage).
	got := tagger.Tag([]string{"zzzunseen", "wordsxq"})
	if len(got) != 2 || got[0] == "" || got[1] == "" {
		t.Fatalf("unknown tokens: %v", got)
	}
}

func TestTagGeneralizesToNumbers(t *testing.T) {
	// Numbers unseen in training should still be tagged NUM thanks to the
	// shape=digits feature.
	samples := Generate(300, 13)
	sents, tags := TokensAndTags(samples, false)
	tagger := Train(sents, tags, DefaultTrainConfig())
	got := tagger.Tag([]string{"777", "cats"})
	if got[0] != "NUM" {
		t.Fatalf("777 tagged %q, want NUM", got[0])
	}
}

func TestExtractFeaturesWindow(t *testing.T) {
	toks := []string{"The", "44th", "president"}
	f0 := extractFeatures(toks, 0)
	f2 := extractFeatures(toks, 2)
	has := func(fs []string, want string) bool {
		for _, f := range fs {
			if f == want {
				return true
			}
		}
		return false
	}
	if !has(f0, "BOS") || !has(f0, "w=the") || !has(f0, "shape=cap") || !has(f0, "w+1=44th") {
		t.Fatalf("f0 = %v", f0)
	}
	if !has(f2, "EOS") || !has(f2, "w-1=44th") || !has(f2, "suf3=ent") {
		t.Fatalf("f2 = %v", f2)
	}
	if has(f2, "shape=digits") {
		t.Fatal("president is not digits")
	}
	if !has(extractFeatures([]string{"1984"}, 0), "shape=digits") {
		t.Fatal("1984 must be digits-shaped")
	}
}

func BenchmarkTagSentence(b *testing.B) {
	samples := Generate(300, 17)
	sents, tags := TokensAndTags(samples, true)
	tagger := Train(sents, tags, DefaultTrainConfig())
	sentence := []string{"the", "famous", "author", "wrote", "3", "books", "in", "Paris"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagger.Tag(sentence)
	}
}

// LogLikelihood returns the conditional log-likelihood of the gold tags
// for one sentence: the objective Train ascends, which tests check.
func (t *Tagger) LogLikelihood(tokens, gold []string) float64 {
	T := len(tokens)
	if T == 0 {
		return 0
	}
	L := len(t.Labels)
	feats := t.featureIDs(tokens)
	state := mat.NewDense(T, L)
	t.scores(feats, state)
	alpha := mat.NewDense(T, L)
	tmp := make([]float64, L)
	for y := 0; y < L; y++ {
		alpha.Set(0, y, t.trans.At(L, y)+state.At(0, y))
	}
	for i := 1; i < T; i++ {
		for y := 0; y < L; y++ {
			for yp := 0; yp < L; yp++ {
				tmp[yp] = alpha.At(i-1, yp) + t.trans.At(yp, y)
			}
			alpha.Set(i, y, mat.LogSumExp(tmp)+state.At(i, y))
		}
	}
	logZ := mat.LogSumExp(alpha.Row(T - 1))
	var pathScore float64
	prev := L // start row
	for i := 0; i < T; i++ {
		y, ok := t.labelIdx[gold[i]]
		if !ok {
			return math.Inf(-1)
		}
		pathScore += t.trans.At(prev, y) + state.At(i, y)
		prev = y
	}
	return pathScore - logZ
}
