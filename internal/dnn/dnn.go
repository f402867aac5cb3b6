// Package dnn implements the feed-forward deep neural network used as the
// second acoustic-model option in Sirius' ASR (paper §2.3.1) and as the
// DNN kernel of Sirius Suite. Scoring is one forward pass per frame batch;
// the hot loop is dense GEMM, which is why the paper parallelizes "for
// each matrix multiplication" (Table 4).
package dnn

import (
	"fmt"
	"math"
	"math/rand"

	"sirius/internal/mat"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// Sigmoid is the classic logistic activation.
	Sigmoid Activation = iota
	// relu is max(0, x).
	relu
	// softmaxOut marks the output layer (applied at scoring time only).
	softmaxOut
)

// Layer is a fully connected layer: y = act(W*x + b).
type Layer struct {
	W   *mat.Dense `json:"w"` // Out x In
	B   []float64  `json:"b"` // Out
	Act Activation `json:"act"`
	In  int        `json:"in"`
	Out int        `json:"out"`
}

// Network is a feed-forward stack of layers. quant holds the int8
// weight images built by QuantizeWeights; it is derived state and is
// neither serialized nor updated by Train.
type Network struct {
	Layers []*Layer `json:"layers"`
	quant  []*mat.DenseI8
}

// New constructs a network with the given layer sizes, e.g.
// New(rng, Sigmoid, 39, 256, 256, 128) builds 39→256→256→128 with sigmoid
// hidden layers and a softmax output.
func New(rng *rand.Rand, hidden Activation, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("dnn: need at least input and output sizes")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		in, out := sizes[i], sizes[i+1]
		l := &Layer{
			W:   mat.NewDense(out, in),
			B:   make([]float64, out),
			In:  in,
			Out: out,
			Act: hidden,
		}
		// Xavier-style init keeps sigmoid layers out of saturation.
		scale := math.Sqrt(6.0 / float64(in+out))
		l.W.Randomize(rng, scale)
		n.Layers = append(n.Layers, l)
	}
	n.Layers[len(n.Layers)-1].Act = softmaxOut
	return n
}

// InputDim returns the expected input vector length.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the number of output classes (senones).
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

func applyAct(act Activation, v []float64) {
	switch act {
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	case relu:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case softmaxOut:
		// handled by callers: scoring wants log-softmax, training wants softmax
	}
}

// ForwardBatch scores a batch of row vectors at once using GEMM — the
// layout the Suite DNN kernel exercises — with the multiplies row-panel
// sharded across the shared worker pool (mat.MulParallel) and every
// intermediate drawn from the mat scratch pools. Returns
// log-posteriors, one row per input row.
func (n *Network) ForwardBatch(batch *mat.Dense) *mat.Dense {
	cur := batch
	for li, l := range n.Layers {
		// Train mutates W in place, so the transpose cannot be cached
		// on the layer; it is rebuilt into pooled scratch each pass.
		wt := mat.GetDense(l.In, l.Out)
		mat.TransposeInto(wt, l.W)
		var next *mat.Dense
		if li == len(n.Layers)-1 {
			next = mat.NewDense(cur.Rows, l.Out) // escapes to the caller
		} else {
			next = mat.GetDense(cur.Rows, l.Out)
		}
		mat.MulParallel(next, cur, wt)
		mat.PutDense(wt)
		for r := 0; r < next.Rows; r++ {
			row := next.Row(r)
			for i := range row {
				row[i] += l.B[i]
			}
			applyAct(l.Act, row)
		}
		if cur != batch {
			mat.PutDense(cur)
		}
		cur = next
	}
	for r := 0; r < cur.Rows; r++ {
		row := cur.Row(r)
		lse := mat.LogSumExp(row)
		for i := range row {
			row[i] -= lse
		}
	}
	return cur
}

// QuantizeWeights builds the int8 scoring image of every layer: each
// weight matrix is quantized per output-neuron row (mat.QuantizeDense
// with per-row scales) in the right-hand-side packing MulI8 streams.
// Weights are already stored Out×In — the dot-product layout — so no
// transpose is needed, and unlike ForwardBatch's per-pass fp64
// transpose the quantized image is built once. Call after training;
// Train invalidates the image.
func (n *Network) QuantizeWeights() {
	n.quant = make([]*mat.DenseI8, len(n.Layers))
	for i, l := range n.Layers {
		n.quant[i] = mat.QuantizeDense(l.W, true)
	}
}

// Quantized reports whether QuantizeWeights has run (and is still
// valid) so callers can gate the int8 scoring path.
func (n *Network) Quantized() bool { return n.quant != nil }

// ForwardBatchI8 is ForwardBatch on the int8 scoring path: activations
// are quantized per frame row at each layer boundary and multiplied
// against the prequantized weights with MulI8 (int8×int8→int32
// accumulate, dequantize on writeback); bias, nonlinearity, and the
// final log-softmax stay in fp64. Panics unless QuantizeWeights has
// run. Returns log-posteriors, one row per input row.
func (n *Network) ForwardBatchI8(batch *mat.Dense) *mat.Dense {
	if n.quant == nil {
		panic("dnn: ForwardBatchI8 before QuantizeWeights")
	}
	cur := batch
	qact := mat.GetDenseI8()
	for li, l := range n.Layers {
		qact = mat.QuantizeDenseInto(qact, cur, false)
		var next *mat.Dense
		if li == len(n.Layers)-1 {
			next = mat.NewDense(cur.Rows, l.Out) // escapes to the caller
		} else {
			next = mat.GetDense(cur.Rows, l.Out)
		}
		mat.MulI8(next, qact, n.quant[li])
		for r := 0; r < next.Rows; r++ {
			row := next.Row(r)
			for i := range row {
				row[i] += l.B[i]
			}
			applyAct(l.Act, row)
		}
		if cur != batch {
			mat.PutDense(cur)
		}
		cur = next
	}
	mat.PutDenseI8(qact)
	for r := 0; r < cur.Rows; r++ {
		row := cur.Row(r)
		lse := mat.LogSumExp(row)
		for i := range row {
			row[i] -= lse
		}
	}
	return cur
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	LearningRate float64
	Epochs       int
	BatchSize    int
}

// Train fits the network to (inputs, labels) with minibatch SGD and
// cross-entropy loss. Returns per-epoch average cross-entropy (tests
// assert it decreases).
func (n *Network) Train(inputs [][]float64, labels []int, cfg TrainConfig, rng *rand.Rand) []float64 {
	if len(inputs) != len(labels) {
		panic("dnn: inputs/labels length mismatch")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	// Weights are about to move; any quantized image is stale.
	n.quant = nil
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += n.sgdStep(inputs, labels, idx[start:end], cfg.LearningRate)
		}
		losses = append(losses, epochLoss/float64(len(inputs)))
	}
	return losses
}

// sgdStep accumulates gradients over one minibatch and applies them.
// Returns the summed cross-entropy over the batch.
func (n *Network) sgdStep(inputs [][]float64, labels []int, batch []int, lr float64) float64 {
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

// Validate checks the network's shape — at least one layer, each
// layer's weights Out x In and holding Out*In values beside Out biases,
// and each layer's input as wide as the output of the layer before — so
// a decoded network cannot panic the scorer that runs it. A nil network
// is invalid.
func (n *Network) Validate() error {
	if n == nil {
		return fmt.Errorf("dnn: null network")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: empty network")
	}
	for i, l := range n.Layers {
		switch {
		case l == nil || l.W == nil:
			return fmt.Errorf("dnn: layer %d has no weights", i)
		case l.In <= 0 || l.Out <= 0 || l.W.Rows != l.Out || l.W.Cols != l.In || len(l.W.Data) != l.Out*l.In || len(l.B) != l.Out:
			return fmt.Errorf("dnn: layer %d malformed", i)
		case i > 0 && n.Layers[i-1].Out != l.In:
			return fmt.Errorf("dnn: layer %d input %d does not chain from %d", i, l.In, n.Layers[i-1].Out)
		}
	}
	return nil
}
