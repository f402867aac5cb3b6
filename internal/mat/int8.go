package mat

// Int8 quantized GEMM for acoustic scoring. Values are quantized per
// row with a symmetric scale (q = round(v/scale), scale = maxabs/127)
// and multiplied in dot-product form: dst[i][j] = scaleA[i] *
// scaleB[j] * Σ_k qa[i][k]·qb[j][k], accumulated exactly in integers
// and dequantized on writeback. Per-row scales give per-layer (DNN) and
// per-component (GMM) dynamic range isolation.
//
// The inner product does not multiply bytes one at a time — a scalar
// byte MAC is one port-bound IMUL per element and measures *slower*
// than the packed fp64 kernel on the serving hardware. Instead each
// operand row is packed two offset-unsigned values per uint64 in 32-bit
// lanes at quantization time, with the right-hand side's lanes swapped:
//
//	w = a0' | a1'<<32        (a' = qa+128 ∈ [1,255])
//	v = b1' | b0'<<32
//	(w*v)>>32 = a0'·b0' + a1'·b1'    — exactly
//
// The cross term a0'·b1' ≤ 255² stays below 2³², so it never carries
// into the result lane, and a1'·b0' shifts past bit 63 entirely: one
// 64-bit multiply performs two exact MACs. The signed dot is recovered
// from Σa'b' with the precomputed row sums:
//
//	Σ qa·qb = Σ a'b' − 128·(Σqa + Σqb) − 128²·K
//
// Measured on the serving box this runs ~3× the scalar-byte rate and
// ~1.6× the packed fp64 kernel per MAC, with full [-127,127] precision.
// (A 16-bit-lane variant doing four MACs per multiply is ~2× faster
// again but caps quantization at 7 bits; acoustic transcript parity is
// worth more than the extra factor, so this package keeps the exact
// 8-bit form.)

import (
	"fmt"
	"math"
	"sync"
)

// i8Offset biases quantized values into unsigned lanes; i8OffsetSq is
// the per-lane constant term it introduces.
const (
	i8Offset   = 128
	i8OffsetSq = i8Offset * i8Offset
)

// DenseI8 is a row-major int8-quantized matrix with per-row scales,
// stored pre-packed for the SWAR dot kernel. Build one with
// QuantizeDense; rhs marks right-hand-side packing (swapped lanes) —
// MulI8 requires a straight LHS and an rhs RHS.
type DenseI8 struct {
	Rows, Cols int
	Scales     []float64 // per-row dequantization scale
	Sums       []int64   // per-row sum of quantized values (signed)
	words      []uint64  // Rows*wpr packed offset values
	wpr        int       // words per row = ceil(Cols/2)
	rhs        bool
}

// QuantizeDense quantizes m per row. rhs selects right-hand-side lane
// order: quantize weights/banks (the operand whose rows index dst
// columns) with rhs=true once at load time, and activations with
// rhs=false per call.
func QuantizeDense(m *Dense, rhs bool) *DenseI8 {
	return QuantizeDenseInto(nil, m, rhs)
}

// QuantizeDenseInto quantizes m into dst, reusing dst's backing slices
// when they are large enough (dst may be nil or come from GetDenseI8).
// Returns dst.
func QuantizeDenseInto(dst *DenseI8, m *Dense, rhs bool) *DenseI8 {
	wpr := (m.Cols + 1) / 2
	if dst == nil {
		dst = &DenseI8{}
	}
	dst.Rows, dst.Cols, dst.wpr, dst.rhs = m.Rows, m.Cols, wpr, rhs
	if cap(dst.Scales) < m.Rows {
		dst.Scales = make([]float64, m.Rows)
		dst.Sums = make([]int64, m.Rows)
	}
	dst.Scales = dst.Scales[:m.Rows]
	dst.Sums = dst.Sums[:m.Rows]
	if cap(dst.words) < m.Rows*wpr {
		dst.words = make([]uint64, m.Rows*wpr)
	}
	dst.words = dst.words[:m.Rows*wpr]
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var maxAbs float64
		for _, v := range row {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
			}
		}
		scale := maxAbs / 127
		dst.Scales[i] = scale
		inv := 0.0
		if scale > 0 {
			inv = 1 / scale
		}
		var sum int64
		words := dst.words[i*wpr : (i+1)*wpr]
		for w := range words {
			q0 := quantizeVal(row, 2*w, inv)
			q1 := quantizeVal(row, 2*w+1, inv)
			sum += int64(q0) + int64(q1)
			lo, hi := uint64(q0+i8Offset), uint64(q1+i8Offset)
			if rhs {
				lo, hi = hi, lo
			}
			words[w] = lo | hi<<32
		}
		dst.Sums[i] = sum
	}
	return dst
}

// quantizeVal quantizes row[j] (0 past the end — the pad lane) to
// [-127, 127].
func quantizeVal(row []float64, j int, inv float64) int32 {
	if j >= len(row) {
		return 0
	}
	q := int32(math.Round(row[j] * inv))
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return q
}

// At returns the dequantized value at (i, j) — what MulI8 actually
// multiplies. Tests use it to assert the per-row quantization error
// bound |m[i][j] − At(i,j)| ≤ Scales[i]/2.
func (q *DenseI8) At(i, j int) float64 {
	w := q.words[i*q.wpr+j/2]
	if (j%2 == 0) != q.rhs {
		w &= 0xffffffff
	} else {
		w >>= 32
	}
	return float64(int64(w)-i8Offset) * q.Scales[i]
}

var denseI8Pool sync.Pool

// GetDenseI8 returns a pooled DenseI8 shell for QuantizeDenseInto so
// steady-state quantized scoring stays off the garbage collector. Pair
// with PutDenseI8.
func GetDenseI8() *DenseI8 {
	if d, ok := denseI8Pool.Get().(*DenseI8); ok {
		return d
	}
	return &DenseI8{}
}

// PutDenseI8 recycles a DenseI8 obtained from GetDenseI8. The caller
// must not use d afterwards.
func PutDenseI8(d *DenseI8) {
	if d == nil {
		return
	}
	denseI8Pool.Put(d)
}

// MulI8 computes dst[i][j] = a.Scales[i] * bt.Scales[j] * (qa_i · qb_j)
// — the quantized product a * btᵀ with dequantization on writeback.
// a must be quantized with rhs=false and bt with rhs=true; both must
// share Cols (the reduction depth). Note bt is stored transposed
// relative to fp64 Mul: its rows index dst columns, which is the
// natural layout for DNN weight matrices (Out×In) and GMM banks.
func MulI8(dst *Dense, a, bt *DenseI8) {
	if a.Cols != bt.Cols || dst.Rows != a.Rows || dst.Cols != bt.Rows {
		panic(fmt.Sprintf("mat: MulI8 dims %dx%d * (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, bt.Rows, bt.Cols, dst.Rows, dst.Cols))
	}
	if a.rhs || !bt.rhs {
		panic("mat: MulI8 needs a straight-packed LHS and an rhs-packed RHS (QuantizeDense rhs flag)")
	}
	wpr := a.wpr
	// Every pad lane contributes i8OffsetSq to the raw accumulator;
	// fold the constant for the padded depth into one term.
	base := int64(2*wpr) * i8OffsetSq
	// Block bt rows so the streamed side stays L2-resident across the
	// sweep of a, and walk a 2×2 register tile inside the block: four
	// row-pair products share each loaded word, halving the bytes
	// moved per MAC — at serving shapes the packed operand no longer
	// fits in cache and the single-row dot is bandwidth-bound, not
	// multiply-bound.
	jBlock := i8BRowBlock(wpr)
	for jj := 0; jj < bt.Rows; jj += jBlock {
		jHi := min(jj+jBlock, bt.Rows)
		for i := 0; i+2 <= a.Rows; i += 2 {
			a0 := a.words[i*wpr : (i+1)*wpr]
			a1 := a.words[(i+1)*wpr : (i+2)*wpr]
			d0, d1 := dst.Row(i), dst.Row(i+1)
			j := jj
			for ; j+2 <= jHi; j += 2 {
				b0 := bt.words[j*wpr : (j+1)*wpr]
				b1 := bt.words[(j+1)*wpr : (j+2)*wpr]
				s00, s01, s10, s11 := kernI8(a0, a1, b0, b1)
				d0[j] = dequantI8(a, bt, i, j, s00, base)
				d0[j+1] = dequantI8(a, bt, i, j+1, s01, base)
				d1[j] = dequantI8(a, bt, i+1, j, s10, base)
				d1[j+1] = dequantI8(a, bt, i+1, j+1, s11, base)
			}
			if j < jHi {
				bw := bt.words[j*wpr : (j+1)*wpr]
				d0[j] = dequantI8(a, bt, i, j, dotWordsSWAR(a0, bw), base)
				d1[j] = dequantI8(a, bt, i+1, j, dotWordsSWAR(a1, bw), base)
			}
		}
		if a.Rows%2 == 1 {
			i := a.Rows - 1
			aw := a.words[i*wpr : (i+1)*wpr]
			drow := dst.Row(i)
			for j := jj; j < jHi; j++ {
				bw := bt.words[j*wpr : (j+1)*wpr]
				drow[j] = dequantI8(a, bt, i, j, dotWordsSWAR(aw, bw), base)
			}
		}
	}
}

// i8BRowBlock sizes the bt row block to roughly half of L2 (1 MiB of
// packed words), so the block is re-read from L2 — not L3 — for every
// LHS row pair.
func i8BRowBlock(wpr int) int {
	const budget = 1 << 20 / 8 // words
	n := budget / max(wpr, 1)
	if n < 2 {
		return 2
	}
	return n &^ 1
}

// kernI8 is the 2×2 SWAR register tile: two packed LHS rows against two
// packed RHS rows, four exact dot accumulators sharing every loaded
// word. Each 64-bit multiply contributes two byte MACs (see the
// package comment).
func kernI8(a0, a1, b0, b1 []uint64) (s00, s01, s10, s11 uint64) {
	n := len(a0)
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	for i := 0; i < n; i++ {
		x0, x1 := a0[i], a1[i]
		y0, y1 := b0[i], b1[i]
		s00 += (x0 * y0) >> 32
		s01 += (x0 * y1) >> 32
		s10 += (x1 * y0) >> 32
		s11 += (x1 * y1) >> 32
	}
	return
}

// dequantI8 converts a raw offset-unsigned accumulator into the scaled
// dot of row i of a and row j of bt.
func dequantI8(a, bt *DenseI8, i, j int, raw uint64, base int64) float64 {
	q := int64(raw) - i8Offset*(a.Sums[i]+bt.Sums[j]) - base
	return a.Scales[i] * bt.Scales[j] * float64(q)
}

// dotWordsSWAR is the single-row-pair fallback dot for tile edges. Two
// accumulators hide the multiply latency.
func dotWordsSWAR(aw, bw []uint64) uint64 {
	var s0, s1 uint64
	i := 0
	bw = bw[:len(aw)]
	for ; i+2 <= len(aw); i += 2 {
		s0 += (aw[i] * bw[i]) >> 32
		s1 += (aw[i+1] * bw[i+1]) >> 32
	}
	if i < len(aw) {
		s0 += (aw[i] * bw[i]) >> 32
	}
	return s0 + s1
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
