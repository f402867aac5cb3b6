package stemmer

import "sirius/internal/mat"

// StemAllParallel is the multicore port of the Suite stemmer kernel: the
// word list is divided into per-worker ranges ("for each individual
// word", Table 4) on the shared worker pool with a single join at the
// end, mirroring the paper's Pthread methodology.
func StemAllParallel(words []string, workers int) []string {
	if workers <= 1 || len(words) < 2*workers {
		return StemAll(words)
	}
	out := make([]string, len(words))
	mat.ParallelWidth(workers, len(words), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Stem(words[i])
		}
	})
	return out
}
