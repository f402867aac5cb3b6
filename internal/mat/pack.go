package mat

// Packed-panel GEMM. The cache-tiled kernel this replaces (MulBlocked)
// was a measured regression — ~40% slower than the naive ikj loop at
// both 128³ and 512×2048×2048 — because its inner loop kept striding
// through full-width b rows and re-ran bounds checks on every element;
// `go test -bench BenchmarkMulVariants ./internal/mat` measures naive
// against packed at 256³ and 512×2048×2048. The fix is the standard Goto
// arrangement: copy A into row-panels of packMR rows and B into
// column-panels of packNR columns, both k-major and contiguous, so the
// register-tile microkernel streams two unit-stride panels with all
// indexing local.
//
// Block sizes are tuned per cache level for the serving hardware class
// (48 KiB L1d / 2 MiB L2 / large shared L3):
//
//	packKC×packNR B strip  (32 KiB) — L1-resident across one A block
//	packMC×packKC A block  ( 1 MiB) — L2-resident across all B strips
//	packKC×packNC B block  (32 MiB) — packed once per K-block, L3/stream
//
// The 4×2 register tile is the measured sweet spot for the scalar
// amd64 backend: 8 accumulators + 6 live operands stay inside the 15
// usable XMM registers, where the classic 4×4 tile (16 accumulators)
// spills to the stack every iteration and runs ~45% slower.
//
// Unlike Mul, the packed kernel has no zero-skip: the branch costs more
// than the multiply inside the register tile. Mul keeps its skip and
// remains the right call for sparse-row operands (e.g. GMM bank sweeps
// over zero-padded component matrices); dense batch scoring goes
// through MulParallel, whose serial branch (a width-1 pool or a small
// product) is mulPackedSerial.
//
// For depths up to packKC the serial packed kernel matches Mul
// bit-for-bit (each dst element sums its k-terms in the same ascending
// order), which TestKernelParityPacked asserts across ragged shapes
// with MulParallel at width 1; deeper matrices accumulate per K-block
// and can differ from Mul by ordinary summation-order rounding.

const (
	// packMR x packNR is the register tile computed by the microkernel.
	packMR = 4
	packNR = 2
	// packKC is the k-extent of packed panels: a packNR-wide B strip of
	// packKC values (32 KiB) stays L1-resident while every A panel of
	// the current block streams against it.
	packKC = 2048
	// packMC rows of packed A (packMC×packKC floats = 1 MiB) fit in L2
	// with room left for the B strip and the dst rows in flight.
	packMC = 64
	// packNC bounds the packed-B working set per K-block.
	packNC = 2048
)

// mulPackedSerial runs the full packed multiply on the calling
// goroutine. dst must be pre-zeroed.
func mulPackedSerial(dst, a, b *Dense) {
	if a.Rows == 0 || b.Cols == 0 || a.Cols == 0 {
		return
	}
	bbuf := getVec(packBufLen(b.Cols, a.Cols))
	abuf := getVec(packABufLen())
	for kk := 0; kk < a.Cols; kk += packKC {
		kc := min(packKC, a.Cols-kk)
		for jj := 0; jj < b.Cols; jj += packNC {
			nc := min(packNC, b.Cols-jj)
			packB(bbuf, b, jj, nc, kk, kc)
			mulPackedRows(dst, a, abuf, bbuf, 0, a.Rows, jj, nc, kk, kc)
		}
	}
	putVec(abuf)
	putVec(bbuf)
}

// packBufLen sizes a packed-B scratch buffer for matrices of width n
// and depth k: one K-block of column panels, padded to whole panels.
func packBufLen(n, k int) int {
	nc := min(packNC, n)
	np := (nc + packNR - 1) / packNR
	return np * packNR * min(packKC, k)
}

// packABufLen sizes a packed-A scratch buffer: one A block, padded to
// whole row panels.
func packABufLen() int {
	return packMC * packKC // packMC is a multiple of packMR
}

// packB copies b's block rows [kk,kk+kc) × cols [jj,jj+nc) into buf as
// packNR-column panels, k-major within each panel:
//
//	buf[p*packNR*kc + k*packNR + c] = b[kk+k][jj+p*packNR+c]
//
// Columns past nc are zero-filled so the microkernel never branches on
// ragged widths. The k-outer loop streams b row-major.
func packB(buf []float64, b *Dense, jj, nc, kk, kc int) {
	np := (nc + packNR - 1) / packNR
	for k := 0; k < kc; k++ {
		row := b.Row(kk + k)
		for p := 0; p < np; p++ {
			j := jj + p*packNR
			o := p*packNR*kc + k*packNR
			buf[o] = row[j]
			if j+1 < jj+nc {
				buf[o+1] = row[j+1]
			} else {
				buf[o+1] = 0
			}
		}
	}
}

// packA copies a's block rows [i0,i0+mc) × cols [kk,kk+kc) into buf as
// packMR-row panels, k-major within each panel:
//
//	buf[p*packMR*kc + k*packMR + r] = a[i0+p*packMR+r][kk+k]
//
// Rows past mc are zero-filled.
func packA(buf []float64, a *Dense, i0, mc, kk, kc int) {
	np := (mc + packMR - 1) / packMR
	for p := 0; p < np; p++ {
		base := p * packMR * kc
		for r := 0; r < packMR; r++ {
			i := i0 + p*packMR + r
			if i >= i0+mc {
				for k := 0; k < kc; k++ {
					buf[base+k*packMR+r] = 0
				}
				continue
			}
			row := a.Row(i)[kk : kk+kc]
			for k, v := range row {
				buf[base+k*packMR+r] = v
			}
		}
	}
}

// mulPackedRows multiplies dst rows [lo,hi) against the pre-packed B
// block in bbuf (covering dst cols [jj,jj+nc), depth [kk,kk+kc)),
// packing A blocks into abuf as it goes. Disjoint row ranges touch
// disjoint dst rows, so MulParallel runs ranges concurrently sharing
// one bbuf.
func mulPackedRows(dst, a *Dense, abuf, bbuf []float64, lo, hi, jj, nc, kk, kc int) {
	npB := (nc + packNR - 1) / packNR
	for ii := lo; ii < hi; ii += packMC {
		mc := min(packMC, hi-ii)
		packA(abuf, a, ii, mc, kk, kc)
		npA := (mc + packMR - 1) / packMR
		for p := 0; p < npB; p++ {
			bp := bbuf[p*packNR*kc : (p+1)*packNR*kc]
			j := jj + p*packNR
			nrEff := min(packNR, jj+nc-j)
			for q := 0; q < npA; q++ {
				ap := abuf[q*packMR*kc : (q+1)*packMR*kc]
				i := ii + q*packMR
				mrEff := min(packMR, ii+mc-i)
				c00, c01, c10, c11, c20, c21, c30, c31 := kern4x2(ap, bp, kc)
				if mrEff == packMR && nrEff == packNR {
					d0 := dst.Row(i)
					d1 := dst.Row(i + 1)
					d2 := dst.Row(i + 2)
					d3 := dst.Row(i + 3)
					d0[j] += c00
					d0[j+1] += c01
					d1[j] += c10
					d1[j+1] += c11
					d2[j] += c20
					d2[j+1] += c21
					d3[j] += c30
					d3[j+1] += c31
					continue
				}
				var t [packMR][packNR]float64
				t[0][0], t[0][1] = c00, c01
				t[1][0], t[1][1] = c10, c11
				t[2][0], t[2][1] = c20, c21
				t[3][0], t[3][1] = c30, c31
				for r := 0; r < mrEff; r++ {
					drow := dst.Row(i + r)
					for c := 0; c < nrEff; c++ {
						drow[j+c] += t[r][c]
					}
				}
			}
		}
	}
}

// kern4x2 is the register-tile microkernel: a 4-row A panel times a
// 2-column B panel over kc steps, both packed k-major and unit-stride.
// Eight accumulators plus six loaded operands keep the whole tile in
// XMM registers; the running panel indices make every bounds check
// loop-invariant.
func kern4x2(ap, bp []float64, kc int) (c00, c01, c10, c11, c20, c21, c30, c31 float64) {
	ai, bi := 0, 0
	for k := 0; k < kc; k++ {
		a0, a1, a2, a3 := ap[ai], ap[ai+1], ap[ai+2], ap[ai+3]
		b0, b1 := bp[bi], bp[bi+1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ai += packMR
		bi += packNR
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
