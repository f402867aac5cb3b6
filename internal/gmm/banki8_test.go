package gmm

import (
	"math"
	"math/rand"
	"testing"
)

// randBank builds a bank of well-conditioned random diagonal GMMs.
func randBank(rng *rand.Rand, senones, mix, dim int) *Bank {
	models := make([]*Model, senones)
	for i := range models {
		m := NewModel(mix, dim)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 3
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	return NewBank(models)
}

// TestBankI8CloseToFP64 sweeps random frames through the quantized and
// fp64 banks. Absolute log-likelihoods may drift by the quantized dot
// error, but the acoustic decoder only consumes score *differences*, so
// the test pins both: bounded absolute drift and an unchanged best
// senone for frames with a clear winner.
func TestBankI8CloseToFP64(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bank := randBank(rng, 48, 4, 39)
	q := bank.Quantize()
	if q.States() != bank.States() {
		t.Fatalf("quantized bank has %d states, want %d", q.States(), bank.States())
	}
	want := make([]float64, bank.States())
	got := make([]float64, bank.States())
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 39)
		for d := range x {
			x[d] = rng.NormFloat64() * 2
		}
		bank.Score(want, [][]float64{x}, 1)
		q.ScoreAll(got, x)
		wBest, gBest := argmaxF(want), argmaxF(got)
		// Runner-up margin below ~2 nats is genuinely ambiguous under
		// int8 resolution; only clear winners must survive quantization.
		if margin(want, wBest) > 2 && wBest != gBest {
			t.Fatalf("trial %d: best senone moved %d -> %d (margin %v)", trial, wBest, gBest, margin(want, wBest))
		}
		for i := range want {
			if !inDrift(want[i], got[i]) {
				t.Fatalf("trial %d state %d: fp64 %v vs int8 %v", trial, i, want[i], got[i])
			}
		}
	}
}

// inDrift accepts quantized scores within an absolute drift window of
// the fp64 score. Deep tails (below -500 nats) are all "impossible" to
// the decoder and get a proportional window instead — the quadratic
// term's quantization step scales with its magnitude.
func inDrift(want, got float64) bool {
	if math.Abs(want-got) <= 2 {
		return true
	}
	return want < -500 && math.Abs(want-got) <= 0.02*math.Abs(want)
}

func TestBankI8SingleComponentMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bank := randBank(rng, 8, 1, 12)
	q := bank.Quantize()
	x := make([]float64, 12)
	for d := range x {
		x[d] = rng.NormFloat64()
	}
	got := make([]float64, q.States())
	q.ScoreAll(got, x)
	for i, m := range bank.Models {
		want := m.LogLikelihood(x)
		if math.Abs(want-got[i]) > 1 {
			t.Fatalf("model %d: fp64 %v vs int8 %v", i, want, got[i])
		}
	}
}

func argmaxF(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// margin returns the gap between the best score and the runner-up.
func margin(v []float64, best int) float64 {
	second := math.Inf(-1)
	for i, x := range v {
		if i != best && x > second {
			second = x
		}
	}
	return v[best] - second
}
