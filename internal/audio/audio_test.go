package audio

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownSine(t *testing.T) {
	// A pure sine at bin k must concentrate energy in bins k and N-k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	FFT(x)
	for i := range x {
		mag := cmplx.Abs(x[i])
		if i == k || i == n-k {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Fatalf("bin %d magnitude %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two FFT")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(5))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum|x|^2 == (1/N) sum|X|^2.
	rng := rand.New(rand.NewSource(7))
	n := 128
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	FFT(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(timeE-freqE/float64(n)) > 1e-8 {
		t.Fatalf("Parseval violated: %v vs %v", timeE, freqE/float64(n))
	}
}

func TestPowerSpectrumPeak(t *testing.T) {
	const sr = 16000
	cfg := DefaultFrontEnd()
	freq := 1000.0
	frame := make([]float64, cfg.FrameLen)
	for i := range frame {
		frame[i] = math.Sin(2 * math.Pi * freq * float64(i) / sr)
	}
	spec := PowerSpectrum(frame, cfg.FFTSize)
	peak := 0
	for i := range spec {
		if spec[i] > spec[peak] {
			peak = i
		}
	}
	wantBin := freq / sr * float64(cfg.FFTSize)
	if math.Abs(float64(peak)-wantBin) > 2 {
		t.Fatalf("spectral peak at bin %d, want about %v", peak, wantBin)
	}
}

func TestMelScaleMonotoneInverse(t *testing.T) {
	f := func(hz float64) bool {
		hz = math.Abs(math.Mod(hz, 8000))
		return math.Abs(melToHz(hzToMel(hz))-hz) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrontEndDimensionsAndFrames(t *testing.T) {
	cfg := DefaultFrontEnd()
	fe := NewFrontEnd(cfg)
	if fe.frames(cfg.FrameLen-1) != 0 {
		t.Fatal("too-short audio must produce zero frames")
	}
	samples := make([]float64, cfg.FrameLen+cfg.FrameShift*9)
	feats := fe.Extract(samples)
	if len(feats) != 10 {
		t.Fatalf("got %d frames, want 10", len(feats))
	}
	for _, v := range feats {
		if len(v) != cfg.Dim() {
			t.Fatalf("feature dim %d, want %d", len(v), cfg.Dim())
		}
	}
	cfg.Deltas = false
	if cfg.Dim() != cfg.NumCeps {
		t.Fatal("Dim without deltas must equal NumCeps")
	}
}

func TestFrontEndDistinguishesPhones(t *testing.T) {
	// MFCCs of a low-F2 vowel and a high-F2 fricative must be far apart;
	// two renditions of the same vowel must be close. This is the property
	// the acoustic model relies on.
	syn := NewSynthesizer(1)
	fe := NewFrontEnd(DefaultFrontEnd())
	mean := func(phone string, seed int64) []float64 {
		s := NewSynthesizer(seed)
		feats := fe.Extract(s.SynthesizePhones([]string{phone, phone, phone}))
		m := make([]float64, len(feats[0]))
		for _, f := range feats {
			for i, v := range f {
				m[i] += v
			}
		}
		for i := range m {
			m[i] /= float64(len(feats))
		}
		return m
	}
	_ = syn
	aa1, aa2, ss := mean("aa", 1), mean("aa", 2), mean("s", 3)
	dist := func(a, b []float64) float64 {
		var d float64
		for i := range a[:13] { // compare static cepstra
			d += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(d)
	}
	if dist(aa1, aa2) >= dist(aa1, ss) {
		t.Fatalf("same-phone distance %v not less than cross-phone %v", dist(aa1, aa2), dist(aa1, ss))
	}
}

func TestSynthesizerDurationsAndDeterminism(t *testing.T) {
	s1 := NewSynthesizer(42)
	s2 := NewSynthesizer(42)
	a := s1.SynthesizePhones([]string{"sil", "aa", "t"})
	b := s2.SynthesizePhones([]string{"sil", "aa", "t"})
	if len(a) != len(b) {
		t.Fatal("same seed must give same length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical waveforms")
		}
	}
	if len(a) < 16000/10 {
		t.Fatalf("waveform too short: %d samples", len(a))
	}
	// Unknown phones degrade to silence, not a panic.
	if got := s1.SynthesizePhones([]string{"bogus"}); len(got) == 0 {
		t.Fatal("unknown phone must synthesize silence")
	}
}

func TestInventoryUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range inventory {
		if seen[p.Name] {
			t.Fatalf("duplicate phone %q", p.Name)
		}
		seen[p.Name] = true
		if PhoneIndex[p.Name] < 0 || inventory[PhoneIndex[p.Name]].Name != p.Name {
			t.Fatalf("PhoneIndex broken for %q", p.Name)
		}
	}
}

func TestWAVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = rng.Float64()*2 - 1
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, samples, 16000); err != nil {
		t.Fatal(err)
	}
	got, sr, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr != 16000 || len(got) != len(samples) {
		t.Fatalf("sr=%d len=%d", sr, len(got))
	}
	for i := range got {
		if math.Abs(got[i]-samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v != %v", i, got[i], samples[i])
		}
	}
}

func TestWAVClipsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{2.5, -2.5}, 8000); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-3 || math.Abs(got[1]+1) > 1e-3 {
		t.Fatalf("clipping failed: %v", got)
	}
}

func TestWAVErrors(t *testing.T) {
	if _, _, err := ReadWAV(bytes.NewReader([]byte("not a wav"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	// Stereo is rejected.
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{0}, 8000); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[22] = 2 // channels = 2
	if _, _, err := ReadWAV(bytes.NewReader(b)); err == nil {
		t.Fatal("expected error for stereo input")
	}
}

func BenchmarkMFCCExtract(b *testing.B) {
	syn := NewSynthesizer(1)
	samples := syn.SynthesizePhones([]string{"sil", "aa", "iy", "s", "t", "ow", "sil"})
	fe := NewFrontEnd(DefaultFrontEnd())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.Extract(samples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fe.frames(len(samples))), "ns/frame")
}

func TestResample(t *testing.T) {
	// A sine resampled 8k -> 16k keeps its frequency and duration.
	const freq = 200.0
	n := 8000
	in := make([]float64, n)
	for i := range in {
		in[i] = math.Sin(2 * math.Pi * freq * float64(i) / 8000)
	}
	out := Resample(in, 8000, 16000)
	if len(out) != 2*n {
		t.Fatalf("len %d, want %d", len(out), 2*n)
	}
	for i := 100; i < len(out)-100; i += 997 {
		want := math.Sin(2 * math.Pi * freq * float64(i) / 16000)
		if math.Abs(out[i]-want) > 0.02 {
			t.Fatalf("sample %d: %v vs %v", i, out[i], want)
		}
	}
	// Identity and edge cases.
	if got := Resample(in, 8000, 8000); &got[0] != &in[0] {
		t.Fatal("same-rate resample must be a no-op")
	}
	if got := Resample(nil, 8000, 16000); got != nil {
		t.Fatal("empty input")
	}
	down := Resample(out, 16000, 8000)
	if len(down) != n {
		t.Fatalf("downsample len %d", len(down))
	}
}
