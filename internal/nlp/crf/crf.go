// Package crf implements a linear-chain conditional random field for
// sequence labeling — the part-of-speech/chunking hot component of
// Sirius' question-answering service and the CRF kernel of Sirius Suite
// (paper §2.3.3, Table 4; baseline CRFsuite on CoNLL-2000 chunking).
//
// The model is the standard one: per-position state features conjoined
// with labels plus label-bigram transition features, trained by SGD on
// the conditional log-likelihood with forward-backward computing the
// expectations, and decoded with Viterbi.
package crf

import (
	"math"
	"math/rand"
	"strings"

	"sirius/internal/mat"
)

// Tagger is a trained linear-chain CRF.
type Tagger struct {
	Labels   []string
	labelIdx map[string]int
	featIdx  map[string]int
	// weights[f*L+y] is the weight of state feature f firing with label y.
	weights []float64
	// trans.At(i, j): score of label j following label i; row L is the
	// start transition.
	trans *mat.Dense
}

// extractFeatures produces the feature strings for position i of tokens.
// The templates mirror a classic chunking feature set: word identity,
// neighbors, prefixes/suffixes and shape features.
func extractFeatures(tokens []string, i int) []string {
	w := strings.ToLower(tokens[i])
	feats := []string{
		"w=" + w,
		"suf2=" + suffix(w, 2),
		"suf3=" + suffix(w, 3),
		"pre1=" + prefix(w, 1),
	}
	if i == 0 {
		feats = append(feats, "BOS")
	} else {
		feats = append(feats, "w-1="+strings.ToLower(tokens[i-1]))
	}
	if i == len(tokens)-1 {
		feats = append(feats, "EOS")
	} else {
		feats = append(feats, "w+1="+strings.ToLower(tokens[i+1]))
	}
	if isDigits(tokens[i]) {
		feats = append(feats, "shape=digits")
	}
	if len(tokens[i]) > 0 && tokens[i][0] >= 'A' && tokens[i][0] <= 'Z' {
		feats = append(feats, "shape=cap")
	}
	return feats
}

func suffix(w string, n int) string {
	if len(w) < n {
		return w
	}
	return w[len(w)-n:]
}

func prefix(w string, n int) string {
	if len(w) < n {
		return w
	}
	return w[:n]
}

func isDigits(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		if w[i] < '0' || w[i] > '9' {
			return false
		}
	}
	return true
}

// TrainConfig controls CRF training.
type TrainConfig struct {
	Epochs       int
	LearningRate float64
	Seed         int64
}

// l2 is the weight decay of every SGD step.
const l2 = 1e-4

// DefaultTrainConfig returns parameters that converge on the synthetic
// chunking task in a few seconds.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 10, LearningRate: 0.2, Seed: 1}
}

// Train fits a CRF on tokenized sentences with per-token gold labels.
func Train(sentences [][]string, tags [][]string, cfg TrainConfig) *Tagger {
	t := &Tagger{labelIdx: map[string]int{}, featIdx: map[string]int{}}
	// Build label and feature dictionaries.
	for si, sent := range sentences {
		for i := range sent {
			if _, ok := t.labelIdx[tags[si][i]]; !ok {
				t.labelIdx[tags[si][i]] = len(t.Labels)
				t.Labels = append(t.Labels, tags[si][i])
			}
			for _, f := range extractFeatures(sent, i) {
				if _, ok := t.featIdx[f]; !ok {
					t.featIdx[f] = len(t.featIdx)
				}
			}
		}
	}
	L := len(t.Labels)
	t.weights = make([]float64, len(t.featIdx)*L)
	t.trans = mat.NewDense(L+1, L)

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(sentences))
	for i := range order {
		order[i] = i
	}
	// Pre-extract feature ids per sentence to keep the training loop hot.
	featCache := make([][][]int, len(sentences))
	goldCache := make([][]int, len(sentences))
	for si, sent := range sentences {
		featCache[si] = make([][]int, len(sent))
		goldCache[si] = make([]int, len(sent))
		for i := range sent {
			for _, f := range extractFeatures(sent, i) {
				featCache[si][i] = append(featCache[si][i], t.featIdx[f])
			}
			goldCache[si][i] = t.labelIdx[tags[si][i]]
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, si := range order {
			if len(sentences[si]) == 0 {
				continue
			}
			t.sgdSentence(featCache[si], goldCache[si], cfg.LearningRate)
		}
	}
	return t
}

// scores fills s (T x L) with state-feature scores.
func (t *Tagger) scores(feats [][]int, s *mat.Dense) {
	L := len(t.Labels)
	for i := range feats {
		row := s.Row(i)
		for j := range row {
			row[j] = 0
		}
		for _, f := range feats[i] {
			base := f * L
			for y := 0; y < L; y++ {
				row[y] += t.weights[base+y]
			}
		}
	}
}

// sgdSentence performs one SGD step on a sentence: gradient of the
// conditional log-likelihood via forward-backward.
func (t *Tagger) sgdSentence(feats [][]int, gold []int, lr float64) {
	T := len(feats)
	L := len(t.Labels)
	state := mat.NewDense(T, L)
	t.scores(feats, state)

	// Forward (log space). alpha.At(i, y) = log sum over paths ending at y.
	alpha := mat.NewDense(T, L)
	beta := mat.NewDense(T, L)
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
	// Backward.
	for y := 0; y < L; y++ {
		beta.Set(T-1, y, 0)
	}
	for i := T - 2; i >= 0; i-- {
		for y := 0; y < L; y++ {
			for yn := 0; yn < L; yn++ {
				tmp[yn] = t.trans.At(y, yn) + state.At(i+1, yn) + beta.At(i+1, yn)
			}
			beta.Set(i, y, mat.LogSumExp(tmp))
		}
	}

	// Gradient ascent on log-likelihood: empirical − expected counts.
	// State features.
	marg := make([]float64, L)
	for i := 0; i < T; i++ {
		for y := 0; y < L; y++ {
			marg[y] = math.Exp(alpha.At(i, y) + beta.At(i, y) - logZ)
		}
		for _, f := range feats[i] {
			base := f * L
			for y := 0; y < L; y++ {
				g := -marg[y]
				if y == gold[i] {
					g++
				}
				t.weights[base+y] += lr * (g - l2*t.weights[base+y])
			}
		}
	}
	// Transition features: start transition.
	for y := 0; y < L; y++ {
		p := math.Exp(alpha.At(0, y) + beta.At(0, y) - logZ)
		g := -p
		if y == gold[0] {
			g++
		}
		t.trans.Set(L, y, t.trans.At(L, y)+lr*(g-l2*t.trans.At(L, y)))
	}
	// Pairwise transitions.
	for i := 1; i < T; i++ {
		for yp := 0; yp < L; yp++ {
			a := alpha.At(i-1, yp)
			for y := 0; y < L; y++ {
				p := math.Exp(a + t.trans.At(yp, y) + state.At(i, y) + beta.At(i, y) - logZ)
				g := -p
				if yp == gold[i-1] && y == gold[i] {
					g++
				}
				t.trans.Set(yp, y, t.trans.At(yp, y)+lr*(g-l2*t.trans.At(yp, y)))
			}
		}
	}
}

// featureIDs maps extracted features to ids, dropping unseen features.
func (t *Tagger) featureIDs(tokens []string) [][]int {
	feats := make([][]int, len(tokens))
	for i := range tokens {
		for _, f := range extractFeatures(tokens, i) {
			if id, ok := t.featIdx[f]; ok {
				feats[i] = append(feats[i], id)
			}
		}
	}
	return feats
}

// Tag labels tokens with the Viterbi-optimal label sequence.
func (t *Tagger) Tag(tokens []string) []string {
	T := len(tokens)
	if T == 0 {
		return nil
	}
	L := len(t.Labels)
	feats := t.featureIDs(tokens)
	state := mat.NewDense(T, L)
	t.scores(feats, state)
	delta := mat.NewDense(T, L)
	back := make([][]int, T)
	for y := 0; y < L; y++ {
		delta.Set(0, y, t.trans.At(L, y)+state.At(0, y))
	}
	for i := 1; i < T; i++ {
		back[i] = make([]int, L)
		for y := 0; y < L; y++ {
			bestScore := math.Inf(-1)
			bestPrev := 0
			for yp := 0; yp < L; yp++ {
				s := delta.At(i-1, yp) + t.trans.At(yp, y)
				if s > bestScore {
					bestScore = s
					bestPrev = yp
				}
			}
			delta.Set(i, y, bestScore+state.At(i, y))
			back[i][y] = bestPrev
		}
	}
	y := mat.MaxIdx(delta.Row(T - 1))
	out := make([]string, T)
	for i := T - 1; i >= 0; i-- {
		out[i] = t.Labels[y]
		if i > 0 {
			y = back[i][y]
		}
	}
	return out
}
