package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// transposed returns src's transpose as a new matrix.
func transposed(src *Dense) *Dense {
	dst := NewDense(src.Cols, src.Rows)
	TransposeInto(dst, src)
	return dst
}

// Mul computes dst = a * b with the naive loop. dst must not alias a or
// b; mismatched dimensions panic. It is the parity reference the packed
// kernel (MulParallel) and the int8 kernel (MulI8) are checked against,
// not a serving kernel, so it lives with the tests: the GMM bank scores through its own flat slabs
// and the DNN through MulParallel. The k-loop is hoisted so the inner
// loop streams both b and dst rows (ikj order), and zero entries of a
// are skipped.
func Mul(dst, a, b *Dense) {
	checkMulDims("Mul", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	r := m.Row(1)
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	dst := NewDense(2, 2)
	Mul(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("dst[%d][%d] = %v, want %v", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	Mul(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewDense(7, 5)
	m.Randomize(rng, 2)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 7)
	MulVec(got, m, x)
	xm := NewDense(5, 1)
	copy(xm.Data, x)
	want := NewDense(7, 1)
	Mul(want, m, xm)
	for i := range got {
		if !almostEq(got[i], want.Data[i], 1e-12) {
			t.Fatalf("row %d: %v != %v", i, got[i], want.Data[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transposed(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewDense(r, c)
		m.Randomize(rng, 1)
		tt := transposed(transposed(m))
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaledAndScale(t *testing.T) {
	dst := []float64{1, 1}
	AddScaled(dst, []float64{2, 4}, 0.5)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("AddScaled got %v", dst)
	}
}

func TestMaxIdx(t *testing.T) {
	if MaxIdx(nil) != -1 {
		t.Fatal("MaxIdx(nil) != -1")
	}
	if MaxIdx([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("MaxIdx must return first max")
	}
}

func TestLogSumExpStable(t *testing.T) {
	// Large values must not overflow.
	v := LogSumExp([]float64{1000, 1000})
	if !almostEq(v, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp = %v", v)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(empty) must be -Inf")
	}
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Fatal("LogSumExp(-Inf) must be -Inf")
	}
}

func TestSoftmax(t *testing.T) {
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax out of range: %v", dst)
		}
		sum += v
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatal("softmax must be monotone in input")
	}
	// Stability with huge inputs.
	Softmax(dst, []float64{1e9, 1e9, 1e9})
	for _, v := range dst {
		if !almostEq(v, 1.0/3, 1e-9) {
			t.Fatalf("softmax instability: %v", dst)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	// Must be a no-op, consistent with LogSumExp(nil) and MaxIdx(nil)
	// rather than panicking on MaxIdx's -1.
	Softmax(nil, nil)
	Softmax([]float64{}, []float64{})
}

func TestLogSumExpMatchesSoftmaxNormalizer(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		lse := LogSumExp(x)
		var direct float64
		for _, v := range x {
			direct += math.Exp(v - lse)
		}
		return almostEq(direct, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(64, 64)
	c := NewDense(64, 64)
	a.Randomize(rng, 1)
	c.Randomize(rng, 1)
	dst := NewDense(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, a, c)
	}
}

// parityShapes exercises every ragged edge of the packed kernel:
// sub-tile shapes, exact block multiples, non-multiples of packMR (4),
// packNR (2), packMC (64) and packNC/packKC (2048), plus degenerate
// 1×N and N×1 products.
var parityShapes = [][3]int{
	{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 130, 67}, {200, 150, 90},
	{1, 300, 1}, {1, 17, 129}, {129, 17, 1}, {4, 2049, 2}, {67, 2100, 3},
	{5, 31, 2051}, {63, 64, 65}, {128, 2048, 16},
}

// TestKernelParityPacked asserts the serial packed kernel (MulParallel
// at width 1) matches the naive Mul bit-for-bit up to depth
// packKC (identical per-element summation order) and within
// summation-rounding tolerance beyond one K-block. verify.sh runs this
// as the kernel-parity smoke.
func TestKernelParityPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range parityShapes {
		a := NewDense(dims[0], dims[1])
		b := NewDense(dims[1], dims[2])
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		want := NewDense(dims[0], dims[2])
		got := NewDense(dims[0], dims[2])
		Mul(want, a, b)
		MulParallel(got, a, b, 1)
		exact := dims[1] <= packKC
		for i := range want.Data {
			if exact && want.Data[i] != got.Data[i] {
				t.Fatalf("dims %v: element %d not bit-identical: %v vs %v", dims, i, want.Data[i], got.Data[i])
			}
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-9 {
				t.Fatalf("dims %v: element %d differs: %v vs %v", dims, i, want.Data[i], got.Data[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dim panic")
		}
	}()
	MulParallel(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2), 1)
}

// TestPackABufLenFitsRaggedBlocks: a packed-A buffer of exactly
// packABufLen(rows, k) holds every A block a range of rows rows packs
// at depth k, for every ragged rows and k up to past one packMC block,
// and the product through it still matches Mul bit for bit.
func TestPackABufLenFitsRaggedBlocks(t *testing.T) {
	const cols = 3
	rng := rand.New(rand.NewSource(19))
	for rows := 1; rows <= 70; rows++ {
		for k := 1; k <= 70; k++ {
			a := NewDense(rows, k)
			b := NewDense(k, cols)
			a.Randomize(rng, 1)
			b.Randomize(rng, 1)
			abuf := make([]float64, packABufLen(rows, k))
			bbuf := make([]float64, packBufLen(cols, k))
			packB(bbuf, b, 0, cols, 0, k)
			got := NewDense(rows, cols)
			mulPackedRows(got, a, abuf, bbuf, 0, rows, 0, cols, 0, k)
			want := NewDense(rows, cols)
			Mul(want, a, b)
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%dx%d: element %d = %v, want %v", rows, k, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestTransposeInto(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := NewDense(3, 2)
	TransposeInto(dst, m)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != dst.At(j, i) {
				t.Fatalf("TransposeInto mismatch at %d,%d", i, j)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dim panic")
		}
	}()
	TransposeInto(NewDense(2, 2), NewDense(2, 3))
}

// TestMulParallelMatchesMul pins the GEMM port's width invariance: at
// every width the product is the width-1 product bit for bit (each dst
// element sums its terms in one order whichever worker owns its row
// panel), and the width-1 product is Mul's within rounding.
func TestMulParallelMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Odd shapes, shapes below the parallel gate, and shapes wide enough
	// to shard across several row panels.
	for _, dims := range append([][3]int{{31, 17, 5}}, parityShapes...) {
		a := NewDense(dims[0], dims[1])
		b := NewDense(dims[1], dims[2])
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		want := NewDense(dims[0], dims[2])
		serial := NewDense(dims[0], dims[2])
		Mul(want, a, b)
		MulParallel(serial, a, b, 1)
		for i := range want.Data {
			if math.Abs(want.Data[i]-serial.Data[i]) > 1e-9 {
				t.Fatalf("dims %v: element %d differs: %v vs %v", dims, i, want.Data[i], serial.Data[i])
			}
		}
		for _, width := range []int{2, 3, 4, 0} {
			got := NewDense(dims[0], dims[2])
			MulParallel(got, a, b, width)
			for i := range serial.Data {
				if got.Data[i] != serial.Data[i] {
					t.Fatalf("dims %v width %d: element %d is %v, width 1 gives %v", dims, width, i, got.Data[i], serial.Data[i])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dim panic")
		}
	}()
	MulParallel(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2), 4)
}

func benchMulSet(b *testing.B, rows, inner, cols int) {
	rng := rand.New(rand.NewSource(1))
	x := NewDense(rows, inner)
	y := NewDense(inner, cols)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	dst := NewDense(rows, cols)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mul(dst, x, y)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulParallel(dst, x, y, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulParallel(dst, x, y, 0)
		}
	})
}

func BenchmarkMulVariants(b *testing.B) {
	b.Run("256x256x256", func(b *testing.B) { benchMulSet(b, 256, 256, 256) })
	// The acceptance shape: with >= 4 cores MulParallel must show >= 2x
	// over serial Mul here (one core runs it ~1x — the panels serialize).
	b.Run("512x2048x2048", func(b *testing.B) { benchMulSet(b, 512, 2048, 2048) })
}
