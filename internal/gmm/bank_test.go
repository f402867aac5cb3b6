package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixedBank builds a bank whose senones have 1 to maxK components, so
// the per-senone reduction sees every mixture size up to maxK.
func mixedBank(rng *rand.Rand, senones, maxK, dim int) *Bank {
	models := make([]*Model, senones)
	for i := range models {
		m := NewModel(1+i%maxK, dim)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 3
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
			m.LogWeights[k] = math.Log(0.1 + rng.Float64())
		}
		m.RecomputeFactors()
		models[i] = m
	}
	return NewBank(models)
}

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

func randFrames(rng *rand.Rand, n, dim int) [][]float64 {
	frames := make([][]float64, n)
	for f := range frames {
		frames[f] = make([]float64, dim)
		for d := range frames[f] {
			frames[f][d] = rng.NormFloat64() * 2
		}
	}
	return frames
}

// TestBankComponentScoresBitExact: with one component per senone the
// reduction is the identity, so Score exposes the kernel's component
// scores — which must be componentLogLikelihood's, bit for bit, in the
// tiled lanes and the ragged tail alike.
func TestBankComponentScoresBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bank := mixedBank(rng, 37, 1, 39)
	frames := randFrames(rng, 7, 39)
	dst := make([]float64, len(frames)*bank.States())
	bank.Score(dst, frames, 1)
	for f, x := range frames {
		for s, m := range bank.Models {
			want := m.componentLogLikelihood(0, x)
			if got := dst[f*bank.States()+s]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frame %d senone %d: Score %v, ComponentLogLikelihood %v", f, s, got, want)
			}
		}
	}
}

// TestBankScoreMatchesLogLikelihood holds the log-sum-exp reduction to
// the one-component-at-a-time LogAdd reference within a stated bound.
func TestBankScoreMatchesLogLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bank := mixedBank(rng, 60, 6, 39)
	frames := randFrames(rng, 23, 39)
	dst := make([]float64, len(frames)*bank.States())
	bank.Score(dst, frames, 0)
	worst := 0.0
	for f, x := range frames {
		for s, m := range bank.Models {
			want, got := m.LogLikelihood(x), dst[f*bank.States()+s]
			delta := math.Abs(got - want)
			if delta > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("frame %d senone %d: Score %v, LogLikelihood %v", f, s, got, want)
			}
			worst = math.Max(worst, delta)
		}
	}
	t.Logf("largest |Δ| against LogLikelihood: %.3g", worst)
}

// TestBankScoreBlockEqualsRows: a frame's row does not depend on the
// block it is scored in — every block size from 1 to 9 (so every
// ragged tile tail) at every width gives, bit for bit, the rows its
// frames score to alone on the caller.
func TestBankScoreBlockEqualsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bank := mixedBank(rng, 64, 4, 8)
	n := bank.States()
	frames := randFrames(rng, 9, 8)
	alone := make([]float64, len(frames)*n)
	for f := range frames {
		bank.Score(alone[f*n:(f+1)*n], frames[f:f+1], 1)
	}
	// -1 and 0 defer to the shared mat pool's width; the rest pin it.
	for _, width := range []int{-1, 0, 1, 2, 7} {
		for size := 1; size <= len(frames); size++ {
			block := make([]float64, size*n)
			bank.Score(block, frames[:size], width)
			for i := range block {
				if math.Float64bits(block[i]) != math.Float64bits(alone[i]) {
					t.Fatalf("width %d block %d: frame %d senone %d: %v in the block, %v alone", width, size, i/n, i%n, block[i], alone[i])
				}
			}
		}
	}
}

// TestBankScoreSeesEMAfterNewBank: the models are views into the bank's
// slabs, so training a model after NewBank changes what Score returns,
// and the scores follow the trained parameters.
func TestBankScoreSeesEMAfterNewBank(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	models := []*Model{NewModel(2, 2), NewModel(3, 2)}
	bank := NewBank(models)
	x := [][]float64{{5, 5}}
	before := make([]float64, bank.States())
	bank.Score(before, x, 1)
	models[0].Train(sampleMixture(rng, 400), 10, rng)
	after := make([]float64, bank.States())
	bank.Score(after, x, 1)
	if after[0] == before[0] {
		t.Fatal("EM after NewBank is invisible to Score")
	}
	if after[1] != before[1] {
		t.Fatal("training one model moved another's score")
	}
	if want := models[0].LogLikelihood(x[0]); math.Abs(after[0]-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Fatalf("trained senone scores %v, its model %v", after[0], want)
	}
}

// TestBankScoreZeroAllocs: steady-state scoring allocates nothing, on
// the caller alone or fanned out over the pool.
func TestBankScoreZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(59))
	bank := mixedBank(rng, 60, 4, 39)
	frames := randFrames(rng, 20, 39)
	dst := make([]float64, len(frames)*bank.States())
	for _, width := range []int{1, 2} {
		if allocs := testing.AllocsPerRun(20, func() { bank.Score(dst, frames, width) }); allocs != 0 {
			t.Fatalf("width %d: %v allocs per Score", width, allocs)
		}
	}
}

func TestBankScorePanicsOnShortDst(t *testing.T) {
	bank := mixedBank(rand.New(rand.NewSource(61)), 4, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a dst shorter than frames × senones")
		}
	}()
	bank.Score(make([]float64, 4), randFrames(rand.New(rand.NewSource(1)), 2, 3), 1)
}

// BenchmarkGMMScoreBank scores blocks at the serving shape (60 senones ×
// 4 components × 39 dims) on the pool, as Recognizer.ScoreBatch does: a
// lone frame, a 200 ms stream chunk, and a one-shot utterance.
func BenchmarkGMMScoreBank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bank := randBank(rng, 60, 4, 39)
	for _, n := range []int{1, 20, 210} {
		frames := randFrames(rng, n, 39)
		dst := make([]float64, n*bank.States())
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bank.Score(dst, frames, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
		})
	}
}
