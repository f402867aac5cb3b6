package mat

import "sync"

// Scratch pools recycle the temporaries of the inference hot paths (the
// per-pass weight transposes and activation matrices of batched DNN
// scoring) so steady-state serving stays off the garbage collector.
// Returned buffers hold arbitrary stale contents; every kernel that
// consumes them (Mul, MulParallel, TransposeInto) fully
// overwrites its destination.

var vecPool sync.Pool

// GetVec returns a length-n float64 scratch slice with arbitrary
// contents. Pair with PutVec when done.
func GetVec(n int) []float64 {
	if v, ok := vecPool.Get().(*[]float64); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]float64, n)
}

// PutVec recycles a slice obtained from GetVec. The caller must not use
// v afterwards.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	v = v[:cap(v)]
	vecPool.Put(&v)
}

var densePool sync.Pool

// GetDense returns a rows x cols matrix with arbitrary contents,
// reusing pooled backing storage when it is large enough. Pair with
// PutDense when done; use NewDense for matrices that escape to callers.
func GetDense(rows, cols int) *Dense {
	n := rows * cols
	if d, ok := densePool.Get().(*Dense); ok && cap(d.Data) >= n {
		d.Rows, d.Cols, d.Data = rows, cols, d.Data[:n]
		return d
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, n)}
}

// PutDense recycles a matrix obtained from GetDense. The caller must
// not use d (or views into it) afterwards.
func PutDense(d *Dense) {
	if d == nil || cap(d.Data) == 0 {
		return
	}
	d.Data = d.Data[:cap(d.Data)]
	densePool.Put(d)
}
