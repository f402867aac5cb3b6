// Package mat provides small dense matrix and vector kernels used by the
// acoustic models (GMM, DNN) and the CRF. It is deliberately minimal: row
// major float64 storage, no views, no pivoting — just the operations the
// Sirius pipeline needs, written to be cache friendly enough for the
// benchmark harness to produce meaningful numbers.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Randomize fills m with uniform values in [-scale, scale] from rng.
func (m *Dense) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// TransposeInto writes src's transpose into dst (src.Cols x src.Rows),
// overwriting every element. It lets hot paths transpose into pooled
// scratch (GetDense) instead of allocating per pass.
func TransposeInto(dst, src *Dense) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("mat: TransposeInto dims %dx%d -> %dx%d",
			src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// checkMulDims panics with a uniform message when dst/a/b are not
// conformable for dst = a * b.
func checkMulDims(op string, dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s dims %dx%d * %dx%d -> %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// MulVec computes dst = m * x for a vector x. len(dst) must equal m.Rows.
func MulVec(dst []float64, m *Dense, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec dims %dx%d * %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// AddScaled computes dst += alpha * src elementwise.
func AddScaled(dst, src []float64, alpha float64) {
	if len(dst) != len(src) {
		panic("mat: AddScaled length mismatch")
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// MaxIdx returns the index of the maximum element of x (first on ties).
// It returns -1 for an empty slice.
func MaxIdx(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// LogSumExp returns log(sum(exp(x_i))) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of src into dst (they may alias). Empty
// input is a no-op, consistent with LogSumExp and MaxIdx.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	m := src[0]
	for _, v := range src[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// mulRowGrain is the smallest dst row panel MulParallel hands a worker;
// a multiple of packMR so every worker range tiles cleanly.
const mulRowGrain = 16

// minParallelFlops gates MulParallel's fan-out: below roughly this many
// multiply-adds the dispatch overhead beats the speedup and the serial
// packed kernel wins (see BenchmarkMulVariants for the crossover).
const minParallelFlops = 1 << 18

// MulParallel computes dst = a * b with the packed-panel kernel,
// sharding dst rows across the shared worker pool. Each K-block of B is
// packed once and shared read-only by every worker; workers pack their
// own A blocks and write disjoint dst rows, so there is no locking.
// Small products and width-1 pools fall back to the serial packed
// kernel.
func MulParallel(dst, a, b *Dense) {
	checkMulDims("MulParallel", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	if Workers() <= 1 || a.Rows < 2*mulRowGrain || a.Rows*a.Cols*b.Cols < minParallelFlops {
		mulPackedSerial(dst, a, b)
		return
	}
	bbuf := getVec(packBufLen(b.Cols, a.Cols))
	for kk := 0; kk < a.Cols; kk += packKC {
		kc := min(packKC, a.Cols-kk)
		for jj := 0; jj < b.Cols; jj += packNC {
			nc := min(packNC, b.Cols-jj)
			packB(bbuf, b, jj, nc, kk, kc)
			Parallel(a.Rows, mulRowGrain, func(lo, hi int) {
				abuf := getVec(packABufLen())
				mulPackedRows(dst, a, abuf, bbuf, lo, hi, jj, nc, kk, kc)
				putVec(abuf)
			})
		}
	}
	putVec(bbuf)
}
