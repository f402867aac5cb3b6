package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the package-level bounded worker pool every
// parallel kernel in the repo draws from — the Go analogue of the
// paper's Pthread CMP ports (§4.3.1, Table 4). A fixed set of
// goroutines is spawned lazily (up to the configured width) and fed
// index ranges over a buffered channel; no call ever spawns its own
// goroutines, so concurrent pipelines contend for one bounded set of
// cores instead of oversubscribing the machine with per-call fan-outs.

// poolTask is one contiguous index range of a Parallel call.
type poolTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// poolQueueDepth bounds in-flight task ranges. When the queue is full a
// submitter runs the range inline instead of blocking, so the pool can
// never deadlock however deeply parallel kernels nest.
const poolQueueDepth = 256

// maxPoolWorkers caps lazily spawned workers regardless of SetWorkers,
// as a backstop against pathological configuration values.
const maxPoolWorkers = 256

var (
	poolTasks   = make(chan poolTask, poolQueueDepth)
	waitGroups  = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
	poolSpawned atomic.Int32
	poolWidth   atomic.Int32 // configured width; 0 = runtime.NumCPU()
)

// SetWorkers sets the pool's parallel width for subsequent kernel
// calls. n <= 0 restores the default, runtime.NumCPU(). Width 1 makes
// every kernel run serially (the measurement baseline). Workers already
// spawned are not torn down — width only governs how many ranges a call
// fans out, so shrinking takes effect immediately for new calls.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	poolWidth.Store(int32(n))
}

// Workers reports the pool's current parallel width (never 0).
func Workers() int {
	if w := poolWidth.Load(); w > 0 {
		return int(w)
	}
	return runtime.NumCPU()
}

// ensureWorkers lazily brings the spawned-goroutine count up to n.
func ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	for {
		cur := poolSpawned.Load()
		if int(cur) >= n {
			return
		}
		if poolSpawned.CompareAndSwap(cur, cur+1) {
			go poolWorker()
		}
	}
}

func poolWorker() {
	for t := range poolTasks {
		t.fn(t.lo, t.hi)
		t.wg.Done()
	}
}

// Parallel partitions [0, n) into contiguous ranges of at least grain
// elements and runs fn over them on the shared pool at the configured
// width. fn must be safe to call concurrently on disjoint ranges.
// Parallel returns when every range has completed.
func Parallel(n, grain int, fn func(lo, hi int)) {
	ParallelWidth(0, n, grain, fn)
}

// ParallelWidth is Parallel with an explicit width, for kernels that
// take one. It is the one place a width is resolved: width <= 0 is the
// pool's configured width (Workers), and width 1 (or a range too small
// to split) runs fn(0, n) inline — the serial baseline stays a plain
// call.
//
// The caller always executes the final range itself and, while waiting
// for the rest, drains other queued ranges. Together with the
// full-queue inline fallback this makes nested parallel kernels (a
// parallel GEMM inside a parallel bank sweep) deadlock-free: every
// blocked waiter is also a worker.
func ParallelWidth(width, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if width <= 0 {
		width = Workers()
	}
	chunks := width
	if maxChunks := (n + grain - 1) / grain; maxChunks < chunks {
		chunks = maxChunks
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	ensureWorkers(chunks - 1)
	chunk := (n + chunks - 1) / chunks
	// The group escapes to the workers, so it is recycled rather than
	// allocated per call; Wait has returned before it is put back.
	wg := waitGroups.Get().(*sync.WaitGroup)
	defer waitGroups.Put(wg)
	lo := 0
	for lo+chunk < n {
		hi := lo + chunk
		wg.Add(1)
		select {
		case poolTasks <- poolTask{fn: fn, lo: lo, hi: hi, wg: wg}:
		default:
			// Queue full: run the range here rather than block on a
			// worker that may itself be waiting on this call.
			fn(lo, hi)
			wg.Done()
		}
		lo = hi
	}
	fn(lo, n)
	// Help drain the queue while waiting. Once the queue reads empty,
	// every range of this call is either done or running on a worker,
	// so the final Wait cannot stall on undispatched work.
	for {
		select {
		case t := <-poolTasks:
			t.fn(t.lo, t.hi)
			t.wg.Done()
		default:
			wg.Wait()
			return
		}
	}
}
