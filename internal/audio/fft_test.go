package audio

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FFT is the reference transform the front end's table-driven power
// spectrum is held to: the in-place radix-2 Cooley-Tukey FFT of x with
// its bit reversal done by swaps and its twiddles by a per-stage complex
// exponential and a running product. len(x) must be a power of two. The
// forward transform uses the e^{-i2πkn/N} convention.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("audio: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the in-place inverse FFT of x (including the 1/N scale).
func IFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// PowerSpectrum returns |FFT(frame)|^2 for the first n/2+1 bins of the
// real-valued frame, zero-padding the frame up to fftSize.
func PowerSpectrum(frame []float64, fftSize int) []float64 {
	buf := make([]complex128, fftSize)
	for i, v := range frame {
		if i >= fftSize {
			break
		}
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	out := make([]float64, fftSize/2+1)
	for i := range out {
		re, im := real(buf[i]), imag(buf[i])
		out[i] = re*re + im*im
	}
	return out
}

// requireSpectrumBitExact runs frame through the table transform at
// every size from its length's power of two up to 2048 and fails unless
// each bin equals the reference PowerSpectrum's bit for bit.
func requireSpectrumBitExact(t *testing.T, name string, frame []float64) {
	t.Helper()
	for n := 1; n <= 2048; n <<= 1 {
		if n < len(frame) {
			continue
		}
		tables := newFFTTables(n)
		got := make([]float64, n/2+1)
		tables.powerSpectrum(got, make([]complex128, n), frame)
		want := PowerSpectrum(frame, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s, %d-point: bin %d = %v, reference %v", name, n, i, got[i], want[i])
			}
		}
	}
}

// TestPowerSpectrumBitExact: the front end's table-driven transform
// reproduces the reference FFT's power spectrum bit for bit.
func TestPowerSpectrumBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := DefaultFrontEnd()
	frames := map[string][]float64{
		"silence": make([]float64, cfg.FrameLen),
		"dc":      make([]float64, cfg.FrameLen),
		"nyquist": make([]float64, cfg.FFTSize),
		"short":   make([]float64, 37),
		"single":  {0.25},
	}
	for i := range frames["dc"] {
		frames["dc"][i] = 0.5
	}
	for i := range frames["nyquist"] {
		frames["nyquist"][i] = 1 - 2*float64(i%2)
	}
	for i := range frames["short"] {
		frames["short"][i] = rng.NormFloat64()
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, cfg.FrameLen)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		frames[fmt.Sprintf("random%d", trial)] = x
	}
	for name, frame := range frames {
		requireSpectrumBitExact(t, name, frame)
	}
}

// TestFrontEndConfigValidate: a configuration that would panic or
// divide by zero at the first extraction is rejected up front, and
// NewFrontEnd refuses it.
func TestFrontEndConfigValidate(t *testing.T) {
	if err := DefaultFrontEnd().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	cases := map[string]func(*FrontEndConfig){
		"fft not a power of two": func(c *FrontEndConfig) { c.FFTSize = 500 },
		"fft shorter than frame": func(c *FrontEndConfig) { c.FFTSize = 256 },
		"zero shift":             func(c *FrontEndConfig) { c.FrameShift = 0 },
		"zero frame":             func(c *FrontEndConfig) { c.FrameLen = 0 },
		"negative rate":          func(c *FrontEndConfig) { c.SampleRate = -1 },
		"no filters":             func(c *FrontEndConfig) { c.NumFilters = 0 },
		"no cepstra":             func(c *FrontEndConfig) { c.NumCeps = 0 },
		"more cepstra":           func(c *FrontEndConfig) { c.NumCeps = c.NumFilters + 1 },
	}
	for name, mutate := range cases {
		cfg := DefaultFrontEnd()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: config validated", name)
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewFrontEnd did not panic", name)
				}
			}()
			NewFrontEnd(cfg)
		}()
	}
}

// TestStreamExtractorPushAllocsFlat: a push allocates the rows it
// returns as one slab, so its allocation count does not grow with the
// frames it emits.
func TestStreamExtractorPushAllocsFlat(t *testing.T) {
	fe := NewFrontEnd(DefaultFrontEnd())
	shift := fe.Config().FrameShift
	rng := rand.New(rand.NewSource(19))
	samples := make([]float64, fe.Config().FrameLen+(8+11*20)*shift)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 0.1
	}
	pushAllocs := func(frames int) float64 {
		se := fe.NewStreamExtractor()
		se.Push(samples[:fe.Config().FrameLen+8*shift]) // past the delta lookahead
		off := fe.Config().FrameLen + 8*shift
		return testing.AllocsPerRun(10, func() {
			if got := len(se.Push(samples[off : off+frames*shift])); got != frames {
				t.Fatalf("push of %d hops emitted %d frames", frames, got)
			}
			off += frames * shift
		})
	}
	one, many := pushAllocs(1), pushAllocs(20)
	if many > one || many > 2 {
		t.Fatalf("a 1-frame push allocates %v times, a 20-frame push %v", one, many)
	}
	t.Logf("allocs per push: %v at 1 frame, %v at 20", one, many)
}
