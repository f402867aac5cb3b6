package dnn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"sirius/internal/mat"
)

func TestForwardIsLogDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, Sigmoid, 10, 16, 4)
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := n.Forward(x)
	if len(out) != 4 {
		t.Fatalf("output dim %d", len(out))
	}
	var sum float64
	for _, v := range out {
		if v > 0 {
			t.Fatalf("log-prob > 0: %v", v)
		}
		sum += math.Exp(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, relu, 8, 12, 5)
	batch := mat.NewDense(7, 8)
	batch.Randomize(rng, 1)
	got := n.ForwardBatch(batch)
	for r := 0; r < batch.Rows; r++ {
		want := n.Forward(batch.Row(r))
		for j := range want {
			if math.Abs(got.At(r, j)-want[j]) > 1e-9 {
				t.Fatalf("row %d col %d: %v != %v", r, j, got.At(r, j), want[j])
			}
		}
	}
}

func TestShapeAccessors(t *testing.T) {
	n := New(rand.New(rand.NewSource(1)), Sigmoid, 39, 128, 128, 64)
	if n.InputDim() != 39 || n.OutputDim() != 64 || len(n.Layers) != 3 {
		t.Fatalf("in=%d out=%d layers=%d", n.InputDim(), n.OutputDim(), len(n.Layers))
	}
}

func TestNewPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(rand.New(rand.NewSource(1)), Sigmoid, 5)
}

// xorData builds the classic non-linearly-separable task.
func xorData() ([][]float64, []int) {
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	var xs [][]float64
	var ys []int
	for rep := 0; rep < 50; rep++ {
		for i := range inputs {
			xs = append(xs, inputs[i])
			ys = append(ys, labels[i])
		}
	}
	return xs, ys
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(rng, Sigmoid, 2, 8, 2)
	xs, ys := xorData()
	losses := n.Train(xs, ys, TrainConfig{LearningRate: 0.9, Epochs: 300, BatchSize: 8}, rng)
	if losses[len(losses)-1] > losses[0]/2 {
		t.Fatalf("loss did not halve: first %v last %v", losses[0], losses[len(losses)-1])
	}
	for i, x := range [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		out := n.Forward(x)
		want := []int{0, 1, 1, 0}[i]
		if mat.MaxIdx(out) != want {
			t.Fatalf("XOR(%v) misclassified: %v", x, out)
		}
	}
}

func TestTrainMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New(rand.New(rand.NewSource(1)), Sigmoid, 2, 2)
	n.Train([][]float64{{1, 2}}, []int{0, 1}, TrainConfig{Epochs: 1}, rand.New(rand.NewSource(1)))
}

func TestNumericalGradient(t *testing.T) {
	// Finite-difference check of the backprop gradient on a tiny net.
	rng := rand.New(rand.NewSource(8))
	n := New(rng, Sigmoid, 3, 4, 2)
	x := []float64{0.3, -0.7, 0.2}
	label := 1
	loss := func() float64 {
		out := n.Forward(x)
		return -out[label]
	}
	// Analytic gradient via one sgdStep with lr chosen so the update IS the
	// negative gradient; recover it from the weight delta.
	beforeW := make([]*mat.Dense, len(n.Layers))
	beforeB := make([][]float64, len(n.Layers))
	for li, l := range n.Layers {
		beforeW[li] = &mat.Dense{Rows: l.W.Rows, Cols: l.W.Cols, Data: append([]float64(nil), l.W.Data...)}
		beforeB[li] = append([]float64(nil), l.B...)
	}
	n.sgdStep([][]float64{x}, []int{label}, []int{0}, 1.0)
	analytic := make([]float64, len(beforeW[0].Data))
	for i := range analytic {
		analytic[i] = beforeW[0].Data[i] - n.Layers[0].W.Data[i] // == gradient
	}
	// Restore every layer and compare against central differences.
	for li := range n.Layers {
		copy(n.Layers[li].W.Data, beforeW[li].Data)
		copy(n.Layers[li].B, beforeB[li])
	}
	const eps = 1e-5
	for _, i := range []int{0, 3, 7, 11} {
		orig := n.Layers[0].W.Data[i]
		n.Layers[0].W.Data[i] = orig + eps
		up := loss()
		n.Layers[0].W.Data[i] = orig - eps
		down := loss()
		n.Layers[0].W.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4 {
			t.Fatalf("grad mismatch at w[%d]: numeric %v analytic %v", i, numeric, analytic[i])
		}
	}
}

// TestValidateRejectsMalformed: every network shape that would panic a
// forward pass, as a model file can spell it, is an error.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no layers":      `{"layers":[]}`,
		"null layer":     `{"layers":[null]}`,
		"no weights":     `{"layers":[{"w":null,"b":[0,0],"in":3,"out":2}]}`,
		"short bias":     `{"layers":[{"w":{"Rows":2,"Cols":3,"Data":[1,2,3,4,5,6]},"b":[0],"in":3,"out":2}]}`,
		"short weights":  `{"layers":[{"w":{"Rows":2,"Cols":3,"Data":[1,2,3]},"b":[0,0],"in":3,"out":2}]}`,
		"in is not cols": `{"layers":[{"w":{"Rows":2,"Cols":3,"Data":[1,2,3,4,5,6]},"b":[0,0],"in":4,"out":2}]}`,
		"broken chain":   `{"layers":[{"w":{"Rows":2,"Cols":3,"Data":[1,2,3,4,5,6]},"b":[0,0],"in":3,"out":2},{"w":{"Rows":1,"Cols":5,"Data":[1,2,3,4,5]},"b":[0],"in":5,"out":1}]}`,
	}
	for name, c := range cases {
		var n Network
		if err := json.Unmarshal([]byte(c), &n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err == nil {
			t.Fatalf("%s: validated", name)
		}
	}
	var nilNet *Network
	if err := nilNet.Validate(); err == nil {
		t.Fatal("a nil network must not validate")
	}
	if err := New(rand.New(rand.NewSource(5)), relu, 6, 10, 3).Validate(); err != nil {
		t.Fatalf("a built network: %v", err)
	}
}

func BenchmarkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, Sigmoid, 39, 256, 256, 128)
	batch := mat.NewDense(32, 39)
	batch.Randomize(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ForwardBatch(batch)
	}
}

// Forward runs one vector through the network and returns the
// log-posterior over output classes (log-softmax): the one-vector
// reference ForwardBatch and ForwardBatchI8 are held to.
func (n *Network) Forward(x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float64, l.Out)
		mat.MulVec(next, l.W, cur)
		for i := range next {
			next[i] += l.B[i]
		}
		applyAct(l.Act, next)
		cur = next
	}
	lse := mat.LogSumExp(cur)
	for i, v := range cur {
		cur[i] = v - lse
	}
	return cur
}
