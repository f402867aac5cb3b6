package mat

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaultsToNumCPU(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(0)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
}

func TestParallelCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		for _, grain := range []int{1, 4, 100} {
			hits := make([]int32, n)
			Parallel(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d grain=%d: bad range [%d,%d)", n, grain, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestParallelWidthResolvesWidth pins ParallelWidth's width contract
// with the pool 4 wide: width 1 is the serial baseline, one inline call
// of fn over [0, n) on the caller, and width <= 0 is the pool's width.
func TestParallelWidthResolvesWidth(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	for _, tc := range []struct{ width, calls int }{{1, 1}, {0, 4}, {-1, 4}, {2, 2}} {
		var calls atomic.Int32
		var full atomic.Bool
		ParallelWidth(tc.width, 100, 1, func(lo, hi int) {
			calls.Add(1)
			full.Store(lo == 0 && hi == 100)
		})
		if int(calls.Load()) != tc.calls {
			t.Fatalf("width %d: fn called %d times, want %d", tc.width, calls.Load(), tc.calls)
		}
		if tc.calls == 1 && !full.Load() {
			t.Fatalf("width %d: the one call did not cover [0, 100)", tc.width)
		}
	}
}

// TestNestedParallelNoDeadlock exercises the failure mode a bounded pool
// invites: every worker blocked waiting on subtasks that only the pool
// could run. The help-drain loop in ParallelWidth must keep this live.
func TestNestedParallelNoDeadlock(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var total atomic.Int64
	Parallel(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			Parallel(8, 1, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if total.Load() != 64 {
		t.Fatalf("nested iterations = %d, want 64", total.Load())
	}
}

// TestPoolStressRace hammers the shared pool from concurrent "pipelines"
// (run under -race in verify.sh): each goroutine interleaves MulParallel
// with nested Parallel loops and checks results against the serial
// kernel.
func TestPoolStressRace(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	const (
		pipelines = 8
		rounds    = 20
		n         = 48
	)
	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			a := NewDense(n, n)
			b := NewDense(n, n)
			a.Randomize(rng, 1)
			b.Randomize(rng, 1)
			want := NewDense(n, n)
			Mul(want, a, b)
			got := NewDense(n, n)
			sums := make([]float64, n)
			for r := 0; r < rounds; r++ {
				MulParallel(got, a, b, 0)
				for i := range want.Data {
					if math.Abs(want.Data[i]-got.Data[i]) > 1e-9 {
						t.Errorf("pipeline %d round %d: element %d differs", seed, r, i)
						return
					}
				}
				Parallel(n, 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sums[i] = dot(a.Row(i), b.Row(i))
					}
				})
				for i := 0; i < n; i++ {
					if math.Abs(sums[i]-dot(a.Row(i), b.Row(i))) > 1e-9 {
						t.Errorf("pipeline %d round %d: row sum %d differs", seed, r, i)
						return
					}
				}
			}
		}(int64(p + 1))
	}
	wg.Wait()
}

func TestScratchPoolsReuse(t *testing.T) {
	v := getVec(100)
	if len(v) != 100 {
		t.Fatalf("GetVec(100) length %d", len(v))
	}
	putVec(v)
	d := GetDense(10, 20)
	if d.Rows != 10 || d.Cols != 20 || len(d.Data) != 200 {
		t.Fatalf("GetDense shape %dx%d len %d", d.Rows, d.Cols, len(d.Data))
	}
	PutDense(d)
	// A pooled buffer can come back with stale contents; shape must
	// still be right after a differently-sized get.
	d2 := GetDense(3, 4)
	if d2.Rows != 3 || d2.Cols != 4 || len(d2.Data) != 12 {
		t.Fatalf("GetDense reuse shape %dx%d len %d", d2.Rows, d2.Cols, len(d2.Data))
	}
	PutDense(d2)
}

// MulParallel's dispatch cost must be O(1) tiny allocations (the
// escaping closure, WaitGroup, and the slice-header boxes of the
// pooled pack-buffer returns), independent of matrix size — the pack
// buffers themselves are pooled and the panels write in place. Without
// the race detector the count is pinned: 6 at width 2. Under it
// sync.Pool drops puts at random, so a dropped pack buffer is
// reallocated now and then, and the bound only says O(1).
func TestMulParallelConstantDispatchAllocs(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	rng := rand.New(rand.NewSource(3))
	a := NewDense(64, 96)
	b := NewDense(96, 80)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	dst := NewDense(64, 80)
	MulParallel(dst, a, b, 0) // warm the pool workers
	budget := 6.0
	if raceEnabled {
		budget = 12
	}
	allocs := testing.AllocsPerRun(50, func() { MulParallel(dst, a, b, 0) })
	t.Logf("MulParallel: %v allocations a call", allocs)
	if allocs > budget {
		t.Fatalf("MulParallel allocates %v per op in steady state, budget %v", allocs, budget)
	}
}

// dot returns the inner product of a and b.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
