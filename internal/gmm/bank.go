package gmm

import (
	"fmt"
	"math"
	"sync"

	"sirius/internal/mat"
)

// Bank is a set of mixtures, one per HMM emitting state (senone). Scoring a
// frame against the whole bank is the unit of work the Sirius Suite GMM
// kernel parallelizes ("for each HMM state", Table 4).
//
// The bank owns its models' parameters: NewBank lays every component out
// once, component-major in Sphinx's flat layout (means and precs as
// [c·dim+d] slabs, one log weight and one log normalizer per component),
// and re-slices each Model's Means[k], Precs[k], LogWeights and Factors
// as views into those slabs. There is one copy of the parameters, so an
// in-place update (EM training) is seen by Score, and a model still
// serializes as before.
type Bank struct {
	Models []*Model

	dim     int
	maxK    int
	counts  []int     // components per senone, in bank order
	means   []float64 // components × dim
	precs   []float64 // components × dim, 1/variance
	logw    []float64 // per component
	factors []float64 // per component
}

// NewBank lays models out into one flat bank. Every model must share one
// dimension and have passed Validate; the models' parameter storage is
// the bank's from then on (a model must not be given to a second bank).
func NewBank(models []*Model) *Bank {
	b := &Bank{Models: models, counts: make([]int, len(models))}
	if len(models) > 0 {
		b.dim = models[0].Dim
	}
	total := 0
	for i, m := range models {
		if m.Dim != b.dim {
			panic(fmt.Sprintf("gmm: bank model %d has dim %d, want %d", i, m.Dim, b.dim))
		}
		b.counts[i] = m.k()
		b.maxK = max(b.maxK, m.k())
		total += m.k()
	}
	// One allocation carved into the four slabs: the models' old per-row
	// storage becomes garbage, so the live heap holds one copy.
	dim, n := b.dim, total*b.dim
	slab := make([]float64, 2*n+2*total)
	b.means, slab = slab[:n:n], slab[n:]
	b.precs, slab = slab[:n:n], slab[n:]
	b.logw, b.factors = slab[:total:total], slab[total:]
	c := 0
	for _, m := range models {
		k := m.k()
		copy(b.logw[c:], m.LogWeights)
		copy(b.factors[c:], m.Factors)
		m.LogWeights = b.logw[c : c+k : c+k]
		m.Factors = b.factors[c : c+k : c+k]
		for j := 0; j < k; j++ {
			row := b.means[c*dim : (c+1)*dim : (c+1)*dim]
			copy(row, m.Means[j])
			m.Means[j] = row
			row = b.precs[c*dim : (c+1)*dim : (c+1)*dim]
			copy(row, m.Precs[j])
			m.Precs[j] = row
			c++
		}
	}
	return b
}

// States returns the number of senones in the bank.
func (b *Bank) States() int { return len(b.Models) }

// tile is how many frames share one pass over a component's means and
// precs: four independent accumulators fit the registers and reuse each
// parameter load four times.
const tile = 4

// Score writes the log-likelihood of every frame under every senone into
// dst, row-major: dst[f·States()+s], so len(dst) must be
// len(frames)·States(). Frames are split into contiguous ranges, one
// pool dispatch for the whole block, mirroring the paper's Pthread CMP
// port (§4.3.1) without a dispatch per frame. width <= 0 uses the pool's
// configured width; width 1 scores on the caller alone.
//
// A component's score is componentLogLikelihood's arithmetic, bit for
// bit; a senone's is the log-sum-exp of its components (max, one sum of
// exponentials, one log). A frame's row does not depend on the block it
// is scored in, its position in it, or the width.
func (b *Bank) Score(dst []float64, frames [][]float64, width int) {
	if len(dst) != len(frames)*b.States() {
		panic(fmt.Sprintf("gmm: Score dst has %d scores for %d frames × %d senones", len(dst), len(frames), b.States()))
	}
	if width <= 0 {
		width = mat.Workers()
	}
	j := jobs.Get().(*scoreJob)
	j.b, j.dst, j.frames = b, dst, frames
	mat.ParallelWidth(width, len(frames), tile, j.run)
	*j = scoreJob{run: j.run}
	jobs.Put(j)
}

// scoreJob carries one Score call to the pool. run is the job's score
// method bound once when the job is made, so a dispatch allocates no
// closure.
type scoreJob struct {
	b      *Bank
	dst    []float64
	frames [][]float64
	run    func(lo, hi int)
}

var jobs = sync.Pool{New: func() any {
	j := &scoreJob{}
	j.run = j.score
	return j
}}

// score scores frames [lo, hi) a tile at a time, then the ragged tail
// one frame at a time.
func (j *scoreJob) score(lo, hi int) {
	b, s := j.b, j.b.States()
	comp := mat.GetDense(tile, b.maxK)
	f := lo
	for ; f+tile <= hi; f += tile {
		b.scoreTile(j.dst[f*s:(f+tile)*s], j.frames[f:f+tile], comp.Data)
	}
	for ; f < hi; f++ {
		b.scoreFrame(j.dst[f*s:(f+1)*s], j.frames[f], comp.Data)
	}
	mat.PutDense(comp)
}

// scoreTile scores four frames against the bank. comp is scratch for
// the frames' component scores of one senone, tile·maxK long.
func (b *Bank) scoreTile(dst []float64, frames [][]float64, comp []float64) {
	dim, s, mk := b.dim, b.States(), b.maxK
	x0, x1, x2, x3 := frames[0][:dim], frames[1][:dim], frames[2][:dim], frames[3][:dim]
	c := 0
	for i, k := range b.counts {
		for j := 0; j < k; j, c = j+1, c+1 {
			mean := b.means[c*dim : (c+1)*dim]
			prec := b.precs[c*dim : (c+1)*dim]
			var q0, q1, q2, q3 float64
			for d, mv := range mean {
				p := prec[d]
				diff := x0[d] - mv
				q0 += p * diff * diff
				diff = x1[d] - mv
				q1 += p * diff * diff
				diff = x2[d] - mv
				q2 += p * diff * diff
				diff = x3[d] - mv
				q3 += p * diff * diff
			}
			w, g := b.logw[c], b.factors[c]
			comp[j] = w + g - 0.5*q0
			comp[mk+j] = w + g - 0.5*q1
			comp[2*mk+j] = w + g - 0.5*q2
			comp[3*mk+j] = w + g - 0.5*q3
		}
		for t := 0; t < tile; t++ {
			dst[t*s+i] = logSumExp(comp[t*mk : t*mk+k])
		}
	}
}

// scoreFrame is scoreTile for one frame.
func (b *Bank) scoreFrame(dst []float64, x []float64, comp []float64) {
	dim := b.dim
	x = x[:dim]
	c := 0
	for i, k := range b.counts {
		for j := 0; j < k; j, c = j+1, c+1 {
			mean := b.means[c*dim : (c+1)*dim]
			prec := b.precs[c*dim : (c+1)*dim]
			var q float64
			for d, mv := range mean {
				diff := x[d] - mv
				q += prec[d] * diff * diff
			}
			comp[j] = b.logw[c] + b.factors[c] - 0.5*q
		}
		dst[i] = logSumExp(comp[:k])
	}
}

// logSumExp is a senone's score from its component scores: the largest,
// plus the log of the sum of every component's exponential relative to
// it. A senone with no finite component scores -Inf.
func logSumExp(comp []float64) float64 {
	top := math.Inf(-1)
	for _, v := range comp {
		top = max(top, v)
	}
	if math.IsInf(top, -1) {
		return top
	}
	var sum float64
	for _, v := range comp {
		sum += math.Exp(v - top)
	}
	return top + math.Log(sum)
}
