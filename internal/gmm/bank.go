package gmm

import "sirius/internal/mat"

// Bank is a set of mixtures, one per HMM emitting state (senone). Scoring a
// frame against the whole bank is the unit of work the Sirius Suite GMM
// kernel parallelizes ("for each HMM state", Table 4).
type Bank struct {
	Models []*Model
}

// NewBank wraps models into a bank.
func NewBank(models []*Model) *Bank { return &Bank{Models: models} }

// States returns the number of senones in the bank.
func (b *Bank) States() int { return len(b.Models) }

// ScoreAll writes the log-likelihood of x under every senone into dst,
// which must have length States(). This is the single-threaded baseline.
func (b *Bank) ScoreAll(dst []float64, x []float64) {
	for i, m := range b.Models {
		dst[i] = m.LogLikelihood(x)
	}
}

// scoreGrain is the smallest senone range worth dispatching to a pool
// worker: mixture likelihoods are ~µs each, so a handful amortizes the
// dispatch.
const scoreGrain = 4

// ScoreAllParallel is the multicore (CMP) port: senones are divided into
// contiguous ranges that run on the shared mat worker pool,
// synchronizing only at the end — mirroring the paper's Pthread
// methodology (§4.3.1) without per-call goroutine spawns. workers <= 0
// uses the pool's configured width (runtime.NumCPU() by default);
// workers == 1 is the serial baseline.
func (b *Bank) ScoreAllParallel(dst []float64, x []float64, workers int) {
	if workers <= 0 {
		workers = mat.Workers()
	}
	if workers <= 1 || len(b.Models) < 2*workers {
		b.ScoreAll(dst, x)
		return
	}
	mat.ParallelWidth(workers, len(b.Models), scoreGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = b.Models[i].LogLikelihood(x)
		}
	})
}
