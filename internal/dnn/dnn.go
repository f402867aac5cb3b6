// Package dnn implements the feed-forward deep neural network used as the
// second acoustic-model option in Sirius' ASR (paper §2.3.1) and as the
// DNN kernel of Sirius Suite. Scoring is one forward pass per frame batch;
// the hot loop is dense GEMM, which is why the paper parallelizes "for
// each matrix multiplication" (Table 4).
package dnn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"sirius/internal/mat"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// Sigmoid is the classic logistic activation.
	Sigmoid Activation = iota
	// ReLU is max(0, x).
	ReLU
	// SoftmaxOut marks the output layer (applied at scoring time only).
	SoftmaxOut
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
	n.Layers[len(n.Layers)-1].Act = SoftmaxOut
	return n
}

// InputDim returns the expected input vector length.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the number of output classes (senones).
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// Depth returns the number of hidden layers.
func (n *Network) Depth() int { return len(n.Layers) - 1 }

func applyAct(act Activation, v []float64) {
	switch act {
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	case ReLU:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case SoftmaxOut:
		// handled by callers: scoring wants log-softmax, training wants softmax
	}
}

// Scratch holds a network's reusable activation buffers so repeated
// forward passes allocate nothing (see ForwardInto). One Scratch serves
// one goroutine; concurrent scorers must each own one.
type Scratch struct {
	a, b []float64
}

// NewScratch sizes a Scratch for the network's widest layer.
func (n *Network) NewScratch() *Scratch {
	w := 0
	for _, l := range n.Layers {
		if l.Out > w {
			w = l.Out
		}
	}
	return &Scratch{a: make([]float64, w), b: make([]float64, w)}
}

// Forward runs one vector through the network and returns the
// log-posterior over output classes (log-softmax). It allocates its
// result and scratch; steady-state scorers use ForwardInto instead.
func (n *Network) Forward(x []float64) []float64 {
	out := make([]float64, n.OutputDim())
	n.ForwardInto(out, x, n.NewScratch())
	return out
}

// ForwardInto runs one vector through the network, writing the
// log-posterior over output classes into dst (length OutputDim). The
// layers ping-pong between the Scratch's two buffers, so with a warm
// Scratch the call performs zero heap allocations — per-frame DNN
// scoring stays off the garbage collector entirely.
func (n *Network) ForwardInto(dst, x []float64, s *Scratch) {
	if len(dst) != n.OutputDim() {
		panic(fmt.Sprintf("dnn: ForwardInto dst length %d, want %d", len(dst), n.OutputDim()))
	}
	cur := x
	buf, spare := s.a, s.b
	for _, l := range n.Layers {
		next := buf[:l.Out]
		mat.MulVec(next, l.W, cur)
		for i := range next {
			next[i] += l.B[i]
		}
		applyAct(l.Act, next)
		cur = next
		buf, spare = spare, buf
	}
	lse := mat.LogSumExp(cur)
	for i, v := range cur {
		dst[i] = v - lse
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

// QuantizedLayer exposes layer i's int8 weight image (nil before
// QuantizeWeights) — tests use it to assert the per-layer quantization
// error bound.
func (n *Network) QuantizedLayer(i int) *mat.DenseI8 {
	if n.quant == nil {
		return nil
	}
	return n.quant[i]
}

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
			if l.Act != SoftmaxOut {
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
			case ReLU:
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

// Save serializes the network as JSON.
func (n *Network) Save(w io.Writer) error { return json.NewEncoder(w).Encode(n) }

// Load reads a JSON network and validates layer chaining.
func Load(r io.Reader) (*Network, error) {
	var n Network
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("dnn: decode: %w", err)
	}
	if len(n.Layers) == 0 {
		return nil, fmt.Errorf("dnn: empty network")
	}
	for i, l := range n.Layers {
		if l.W == nil || l.W.Rows != l.Out || l.W.Cols != l.In || len(l.B) != l.Out {
			return nil, fmt.Errorf("dnn: layer %d malformed", i)
		}
		if i > 0 && n.Layers[i-1].Out != l.In {
			return nil, fmt.Errorf("dnn: layer %d input %d does not chain from %d", i, l.In, n.Layers[i-1].Out)
		}
	}
	return &n, nil
}
