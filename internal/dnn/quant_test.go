package dnn

import (
	"math"
	"math/rand"
	"testing"

	"sirius/internal/mat"
)

// TestQuantizeWeightsErrorBound asserts the per-layer guarantee the int8
// scoring path rests on: every quantized weight is within half a
// quantization step (Scales[row]/2) of the fp64 original, layer by
// layer.
func TestQuantizeWeightsErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, Sigmoid, 39, 128, 96, 64)
	if n.Quantized() {
		t.Fatal("network reports quantized before QuantizeWeights")
	}
	if n.quant != nil {
		t.Fatal("quantized image present before QuantizeWeights")
	}
	n.QuantizeWeights()
	if !n.Quantized() {
		t.Fatal("network must report quantized after QuantizeWeights")
	}
	for li, l := range n.Layers {
		q := n.quant[li]
		if q == nil || q.Rows != l.Out || q.Cols != l.In {
			t.Fatalf("layer %d: quantized image missing or misshapen", li)
		}
		for i := 0; i < l.Out; i++ {
			bound := q.Scales[i]/2 + 1e-12
			for j := 0; j < l.In; j++ {
				if err := math.Abs(l.W.At(i, j) - q.At(i, j)); err > bound {
					t.Fatalf("layer %d (%d,%d): quantization error %v exceeds scale/2 = %v", li, i, j, err, bound)
				}
			}
		}
	}
}

// TestForwardBatchI8CloseToFP64 runs the same batch down both scoring
// paths. The outputs are log-posteriors, so agreement is checked in
// probability space: small elementwise log differences and, critically
// for transcript parity, the same argmax senone per frame.
func TestForwardBatchI8CloseToFP64(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := New(rng, Sigmoid, 39, 128, 128, 96)
	n.QuantizeWeights()
	batch := mat.NewDense(16, 39)
	batch.Randomize(rng, 2)
	want := n.ForwardBatch(batch, 0)
	got := n.ForwardBatchI8(batch)
	for r := 0; r < batch.Rows; r++ {
		wRow, gRow := want.Row(r), got.Row(r)
		wArg, gArg := argmax(wRow), argmax(gRow)
		if wArg != gArg {
			t.Fatalf("row %d: argmax moved %d -> %d under quantization", r, wArg, gArg)
		}
		for j := range wRow {
			if err := math.Abs(wRow[j] - gRow[j]); err > 0.2 {
				t.Fatalf("row %d col %d: log-posterior drift %v (fp64 %v, int8 %v)", r, j, err, wRow[j], gRow[j])
			}
		}
	}
}

func TestForwardBatchI8PanicsUnquantized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, Sigmoid, 4, 8, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic before QuantizeWeights")
		}
	}()
	n.ForwardBatchI8(mat.NewDense(2, 4))
}

// TestTrainInvalidatesQuantizedWeights pins the staleness contract: any
// weight update drops the int8 image so quantized scoring can never see
// pre-training weights.
func TestTrainInvalidatesQuantizedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := New(rng, Sigmoid, 2, 4, 2)
	n.QuantizeWeights()
	inputs := [][]float64{{0, 0}, {1, 1}}
	labels := []int{0, 1}
	n.Train(inputs, labels, TrainConfig{LearningRate: 0.1, Epochs: 1}, rng)
	if n.Quantized() {
		t.Fatal("Train must invalidate the quantized weight image")
	}
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
