package gmm

import (
	"math"

	"sirius/internal/mat"
)

// BankI8 is a bank's int8 scoring image. The diagonal-Gaussian
// component density is an affine form in (y, y²) for any shifted,
// scaled coordinate y_d = (x_d − center_d)/spread_d:
//
//	log p_k(x) = c_k + ⟨prec_k⊙m'_k⊙s, y⟩ − ½⟨prec_k⊙s², y²⟩
//	m'_k = mean_k − center,  s = spread
//	c_k  = logw_k + factor_k − ½·Σ_d prec_k[d]·m'_k[d]²
//
// so the whole bank sweep collapses into two quantized matrix-vector
// products over per-component rows (the linear and quadratic
// coefficient matrices, int8 with per-row scales), followed by exact
// fp64 log-add across each mixture — mixture accumulation carries no
// quantization error, only the component dots do.
//
// The standardization is what makes 8 bits survive the decomposition:
// in raw coordinates the two dots are each hundreds of nats that cancel
// to an O(10) score, so quantization error — proportional to the
// operands' magnitudes, not the result's — swamps the senone margins.
// Centering on the bank's global mean and scaling by each dimension's
// mixture spread (both derived from the models, no data needed) shrinks
// the operands to the same order as the score itself.
type BankI8 struct {
	lin    *mat.DenseI8 // components × dim: prec⊙(mean−center)⊙spread
	quad   *mat.DenseI8 // components × dim: −½·prec⊙spread²
	consts []float64    // per-component constant term
	center []float64    // per-dim shift (global mean of component means)
	spread []float64    // per-dim scale (mixture stddev along that dim)
	counts []int        // components per senone, in bank order
	states int
	dim    int
}

// Quantize builds the bank's int8 scoring image. Models are assumed
// frozen afterwards (training a model does not refresh the image).
func (b *Bank) Quantize() *BankI8 {
	total := 0
	dim := 0
	for _, m := range b.Models {
		total += m.K()
		dim = m.Dim
	}
	lin := mat.NewDense(total, dim)
	quad := mat.NewDense(total, dim)
	q := &BankI8{
		consts: make([]float64, total),
		center: make([]float64, dim),
		spread: make([]float64, dim),
		counts: make([]int, len(b.Models)),
		states: len(b.Models),
		dim:    dim,
	}
	// Standardize from the bank's own statistics: center on the grand
	// mean of component means, scale by the mixture spread along each
	// dimension (within-component variance + between-component scatter).
	for _, m := range b.Models {
		for k := 0; k < m.K(); k++ {
			for d := 0; d < m.Dim; d++ {
				q.center[d] += m.Means[k][d]
			}
		}
	}
	for d := range q.center {
		q.center[d] /= float64(total)
	}
	for _, m := range b.Models {
		for k := 0; k < m.K(); k++ {
			for d := 0; d < m.Dim; d++ {
				dev := m.Means[k][d] - q.center[d]
				q.spread[d] += 1/m.Precs[k][d] + dev*dev
			}
		}
	}
	for d := range q.spread {
		q.spread[d] = math.Sqrt(q.spread[d] / float64(total))
		if q.spread[d] < 1e-6 {
			q.spread[d] = 1e-6
		}
	}
	c := 0
	for mi, m := range b.Models {
		q.counts[mi] = m.K()
		for k := 0; k < m.K(); k++ {
			lrow, qrow := lin.Row(c), quad.Row(c)
			var msq float64
			for d := 0; d < m.Dim; d++ {
				p := m.Precs[k][d]
				s := q.spread[d]
				dev := m.Means[k][d] - q.center[d]
				lrow[d] = p * dev * s
				qrow[d] = -0.5 * p * s * s
				msq += p * dev * dev
			}
			q.consts[c] = m.LogWeights[k] + m.Factors[k] - 0.5*msq
			c++
		}
	}
	q.lin = mat.QuantizeDense(lin, true)
	q.quad = mat.QuantizeDense(quad, true)
	return q
}

// States returns the number of senones in the bank image.
func (q *BankI8) States() int { return q.states }

// ScoreAll writes the quantized log-likelihood of x under every senone
// into dst (length States()): two MulI8 matvecs over the component
// coefficient rows, then exact log-add per mixture. The frame vector
// and its elementwise square are quantized per call, each with its own
// scale, so the quadratic term's larger dynamic range cannot crush the
// linear term's resolution.
func (q *BankI8) ScoreAll(dst, x []float64) {
	xm := mat.GetDense(2, q.dim)
	xrow, x2row := xm.Row(0), xm.Row(1)
	for d, v := range x {
		y := (v - q.center[d]) / q.spread[d]
		xrow[d] = y
		x2row[d] = y * y
	}
	// The two 1×dim inputs quantize together (per-row scales keep them
	// independent) and multiply separately via row views.
	qx := mat.QuantizeDenseInto(mat.GetDenseI8(), xm, false)
	linDot := mat.GetDense(1, q.lin.Rows)
	quadDot := mat.GetDense(1, q.lin.Rows)
	mat.MulI8(linDot, qx.RowView(0), q.lin)
	mat.MulI8(quadDot, qx.RowView(1), q.quad)
	c := 0
	for mi, k := range q.counts {
		score := math.Inf(-1)
		for j := 0; j < k; j++ {
			s := q.consts[c] + linDot.Data[c] + quadDot.Data[c]
			score = mat.LogAdd(score, s)
			c++
		}
		dst[mi] = score
	}
	mat.PutDense(linDot)
	mat.PutDense(quadDot)
	mat.PutDenseI8(qx)
	mat.PutDense(xm)
}
