package audio

import (
	"math"
	"math/cmplx"
)

// fftTables drive the front end's radix-2 Cooley-Tukey power spectrum
// from tables built once per FrontEnd: the bit-reversal permutation and
// every stage's twiddles. The twiddles are generated by the recurrence a
// table-free transform runs inline per stage (w = 1, then w *= e^{-i2π/L}
// per butterfly), so the butterflies multiply by the same bits — the
// spectrum equals that transform's bit for bit — without a complex
// exponential per stage or a twiddle update per butterfly.
type fftTables struct {
	rev []int32      // bit-reversal permutation of 0..n-1 (an involution)
	tw  []complex128 // the span-L stage's L/2 twiddles are tw[L/2-1 : L-1]
}

// newFFTTables builds the tables for an n-point transform, n a power of
// two.
func newFFTTables(n int) fftTables {
	t := fftTables{rev: make([]int32, n), tw: make([]complex128, n-1)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		t.rev[i] = int32(j)
	}
	for span := 2; span <= n; span <<= 1 {
		step := cmplx.Exp(complex(0, -2*math.Pi/float64(span)))
		w := complex(1, 0)
		stage := t.tw[span/2-1 : span-1]
		for j := range stage {
			stage[j] = w
			w *= step
		}
	}
	return t
}

// powerSpectrum writes |FFT(frame)|² for the first n/2+1 bins into dst,
// the real frame zero-padded to the transform length n = len(buf)
// (len(frame) <= n). buf is caller-owned scratch; nothing is allocated.
// The forward transform uses the e^{-i2πkn/N} convention.
func (t *fftTables) powerSpectrum(dst []float64, buf []complex128, frame []float64) {
	clear(buf)
	for i, v := range frame {
		buf[t.rev[i]] = complex(v, 0)
	}
	n := len(buf)
	for span := 2; span <= n; span <<= 1 {
		half := span / 2
		tw := t.tw[half-1 : span-1]
		for i := 0; i < n; i += span {
			lo, hi := buf[i:i+half:i+half], buf[i+half:i+span:i+span]
			lo, hi = lo[:len(tw)], hi[:len(tw)]
			// Indexed, not ranged by value: the machine code is the
			// same, but under -race a ranged complex128 copy takes the
			// detector's slow range path and more than doubles the
			// front end's instrumented time.
			for j := range tw {
				u := lo[j]
				v := hi[j] * tw[j]
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
	for i := range dst {
		re, im := real(buf[i]), imag(buf[i])
		dst[i] = re*re + im*im
	}
}
