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
	got := n.ForwardBatch(batch, 1)
	for r := 0; r < batch.Rows; r++ {
		want := n.Forward(batch.Row(r))
		for j := range want {
			if math.Abs(got.At(r, j)-want[j]) > 1e-9 {
				t.Fatalf("row %d col %d: %v != %v", r, j, got.At(r, j), want[j])
			}
		}
	}
}

// TestForwardBatchWidthInvariant pins the Suite DNN kernel's CMP port:
// on the Suite's shape, above the GEMM's fan-out gate, every width gives
// the width-1 log-posteriors bit for bit.
func TestForwardBatchWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(rng, Sigmoid, 39, 256, 256, 128)
	batch := mat.NewDense(128, 39)
	batch.Randomize(rng, 1)
	want := n.ForwardBatch(batch, 1)
	for _, width := range []int{2, 3, 4, 0} {
		got := n.ForwardBatch(batch, width)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("width %d: element %d is %v, width 1 gives %v", width, i, got.Data[i], want.Data[i])
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
	n.sgdStep(n.newTrainScratch(1), [][]float64{x}, []int{label}, []int{0}, 1.0)
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

// refSGDStep is the sample-at-a-time SGD step the batched sgdStep
// replaced, kept as its oracle: per sample a MulVec forward, a rank-1
// dW update and a delta propagated through W, all into fresh slices,
// with the gradients applied once at the end of the minibatch. Returns
// the summed cross-entropy over the batch.
func refSGDStep(n *Network, inputs [][]float64, labels []int, batch []int, lr float64) float64 {
	type grads struct {
		dW *mat.Dense
		dB []float64
	}
	g := make([]grads, len(n.Layers))
	for i, l := range n.Layers {
		g[i] = grads{dW: mat.NewDense(l.Out, l.In), dB: make([]float64, l.Out)}
	}
	var loss float64
	acts := make([][]float64, len(n.Layers)+1)
	for _, sample := range batch {
		x, label := inputs[sample], labels[sample]
		// Forward, keeping activations.
		acts[0] = x
		for li, l := range n.Layers {
			out := make([]float64, l.Out)
			mat.MulVec(out, l.W, acts[li])
			for i := range out {
				out[i] += l.B[i]
			}
			if l.Act != softmaxOut {
				applyAct(l.Act, out)
			}
			acts[li+1] = out
		}
		probs := make([]float64, len(acts[len(acts)-1]))
		mat.Softmax(probs, acts[len(acts)-1])
		loss += -math.Log(math.Max(probs[label], 1e-12))
		// Backward: delta at output is probs - onehot.
		delta := probs
		delta[label] -= 1
		for li := len(n.Layers) - 1; li >= 0; li-- {
			l := n.Layers[li]
			in := acts[li]
			for o := 0; o < l.Out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := g[li].dW.Row(o)
				for i, iv := range in {
					row[i] += d * iv
				}
				g[li].dB[o] += d
			}
			if li == 0 {
				break
			}
			// Propagate delta through W and the previous activation.
			prev := make([]float64, l.In)
			for o := 0; o < l.Out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := l.W.Row(o)
				for i, wv := range row {
					prev[i] += d * wv
				}
			}
			switch n.Layers[li-1].Act {
			case Sigmoid:
				for i, a := range acts[li] {
					prev[i] *= a * (1 - a)
				}
			case relu:
				for i, a := range acts[li] {
					if a <= 0 {
						prev[i] = 0
					}
				}
			}
			delta = prev
		}
	}
	scale := -lr / float64(len(batch))
	for li, l := range n.Layers {
		mat.AddScaled(l.W.Data, g[li].dW.Data, scale)
		mat.AddScaled(l.B, g[li].dB, scale)
	}
	return loss
}

// refTrain is Train's epoch and minibatch loop driving refSGDStep.
func refTrain(n *Network, inputs [][]float64, labels []int, cfg TrainConfig, rng *rand.Rand) []float64 {
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	var losses []float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			epochLoss += refSGDStep(n, inputs, labels, idx[start:end], cfg.LearningRate)
		}
		losses = append(losses, epochLoss/float64(len(inputs)))
	}
	return losses
}

// frameSet draws count Gaussian input rows of width dim with uniform
// labels in [0, classes).
func frameSet(rng *rand.Rand, count, dim, classes int) ([][]float64, []int) {
	xs := make([][]float64, count)
	ys := make([]int, count)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		ys[i] = rng.Intn(classes)
	}
	return xs, ys
}

// TestTrainMatchesReference: the batched trainer gives every weight,
// bias and per-epoch loss of the sample-at-a-time reference bit for bit,
// for sigmoid and relu nets (relu zeroes deltas the reference skipped),
// a ragged last minibatch, minibatches of one, and the served acoustic
// shape at the served batch size. verify.sh runs it in the kernel
// parity smoke.
func TestTrainMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		act    Activation
		sizes  []int
		frames int
		batch  int
	}{
		{"sigmoid", Sigmoid, []int{10, 16, 4}, 256, 32},
		{"relu ragged", relu, []int{8, 12, 12, 5}, 100, 32},
		{"sigmoid ragged", Sigmoid, []int{6, 9, 3}, 77, 16},
		{"batch of one", Sigmoid, []int{6, 5, 3}, 40, 1},
		{"served shape", Sigmoid, []int{39, 48, 48, 60}, 500, 32},
	}
	for i, c := range cases {
		seed := int64(100 + i)
		xs, ys := frameSet(rand.New(rand.NewSource(seed)), c.frames, c.sizes[0], c.sizes[len(c.sizes)-1])
		cfg := TrainConfig{LearningRate: 0.3, Epochs: 3, BatchSize: c.batch}
		got := New(rand.New(rand.NewSource(seed)), c.act, c.sizes...)
		want := New(rand.New(rand.NewSource(seed)), c.act, c.sizes...)
		gotLoss := got.Train(xs, ys, cfg, rand.New(rand.NewSource(seed+1)))
		wantLoss := refTrain(want, xs, ys, cfg, rand.New(rand.NewSource(seed+1)))
		for e := range wantLoss {
			if math.Float64bits(gotLoss[e]) != math.Float64bits(wantLoss[e]) {
				t.Fatalf("%s: epoch %d loss %v, reference %v", c.name, e, gotLoss[e], wantLoss[e])
			}
		}
		for li, l := range want.Layers {
			for j, w := range l.W.Data {
				if math.Float64bits(got.Layers[li].W.Data[j]) != math.Float64bits(w) {
					t.Fatalf("%s: layer %d W[%d] = %v, reference %v", c.name, li, j, got.Layers[li].W.Data[j], w)
				}
			}
			for j, b := range l.B {
				if math.Float64bits(got.Layers[li].B[j]) != math.Float64bits(b) {
					t.Fatalf("%s: layer %d B[%d] = %v, reference %v", c.name, li, j, got.Layers[li].B[j], b)
				}
			}
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
		n.ForwardBatch(batch, 0)
	}
}

// BenchmarkTrain is one epoch per op of the served acoustic shape
// (39→48→48→60) at the served batch size over a fixed 2 000-frame set.
func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := frameSet(rng, 2000, 39, 60)
	n := New(rng, Sigmoid, 39, 48, 48, 60)
	cfg := TrainConfig{LearningRate: 0.3, Epochs: 1, BatchSize: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Train(xs, ys, cfg, rng)
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
