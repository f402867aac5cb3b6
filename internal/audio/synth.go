package audio

import (
	"math"
	"math/rand"
)

// The paper's ASR consumes real dictated speech; this repository cannot.
// Instead we synthesize speech-like waveforms from a compact phoneme
// inventory using a classic source-filter (formant) model: voiced phones
// are a glottal pulse train shaped by two resonant formants, fricatives
// are filtered noise, and stops are a silence followed by a burst. The
// synthesizer is deterministic given a seed, with per-utterance jitter in
// pitch, formants and duration so that training and test utterances differ
// the way different speakers' takes do.

// phone describes one synthesizable phoneme.
type phone struct {
	Name    string
	F1, F2  float64 // formant center frequencies in Hz (0 for unvoiced)
	Noise   float64 // noise mix 0..1
	Stop    bool    // stop consonant: closure + burst
	BaseDur float64 // nominal duration in seconds
}

// inventory is the phoneme set shared by the synthesizer and the ASR
// lexicon. Keep it small but phonetically spread out so the acoustic
// models are separable.
var inventory = []phone{
	{Name: "sil", BaseDur: 0.08},
	{Name: "aa", F1: 730, F2: 1090, BaseDur: 0.12},
	{Name: "iy", F1: 270, F2: 2290, BaseDur: 0.11},
	{Name: "uw", F1: 300, F2: 870, BaseDur: 0.11},
	{Name: "eh", F1: 530, F2: 1840, BaseDur: 0.10},
	{Name: "ow", F1: 570, F2: 840, BaseDur: 0.12},
	{Name: "ah", F1: 640, F2: 1190, BaseDur: 0.10},
	{Name: "er", F1: 490, F2: 1350, BaseDur: 0.11},
	{Name: "s", Noise: 1, F2: 5000, BaseDur: 0.09},
	{Name: "sh", Noise: 1, F2: 2700, BaseDur: 0.09},
	{Name: "f", Noise: 0.9, F2: 4200, BaseDur: 0.08},
	{Name: "m", F1: 280, F2: 1100, BaseDur: 0.08},
	{Name: "n", F1: 320, F2: 1500, BaseDur: 0.08},
	{Name: "l", F1: 380, F2: 1200, BaseDur: 0.08},
	{Name: "r", F1: 420, F2: 1300, BaseDur: 0.08},
	{Name: "t", Stop: true, Noise: 1, F2: 3800, BaseDur: 0.07},
	{Name: "k", Stop: true, Noise: 1, F2: 2200, BaseDur: 0.07},
	{Name: "p", Stop: true, Noise: 1, F2: 1200, BaseDur: 0.07},
	{Name: "d", Stop: true, Noise: 0.8, F2: 3200, F1: 300, BaseDur: 0.07},
	{Name: "v", Noise: 0.6, F1: 250, F2: 1800, BaseDur: 0.08},
	{Name: "w", F1: 310, F2: 700, BaseDur: 0.08},
	{Name: "z", Noise: 0.8, F1: 240, F2: 4600, BaseDur: 0.08},
}

// PhoneIndex maps phone names to inventory indices.
var PhoneIndex = func() map[string]int {
	m := make(map[string]int, len(inventory))
	for i, p := range inventory {
		m[p.Name] = i
	}
	return m
}()

// Synthesizer renders phone sequences to 16 kHz waveforms.
type Synthesizer struct {
	SampleRate int
	Pitch      float64 // fundamental frequency in Hz
	rng        *rand.Rand
}

// NewSynthesizer returns a synthesizer with the given jitter seed.
func NewSynthesizer(seed int64) *Synthesizer {
	return &Synthesizer{SampleRate: 16000, Pitch: 120, rng: rand.New(rand.NewSource(seed))}
}

// resonator is a two-pole IIR bandpass section tuned to a formant.
type resonator struct {
	a1, a2, gain float64
	y1, y2       float64
}

func newResonator(freq, bw, sampleRate float64) *resonator {
	r := math.Exp(-math.Pi * bw / sampleRate)
	theta := 2 * math.Pi * freq / sampleRate
	return &resonator{
		a1:   2 * r * math.Cos(theta),
		a2:   -r * r,
		gain: (1 - r) * math.Sqrt(1-2*r*math.Cos(2*theta)+r*r),
	}
}

func (f *resonator) filter(x float64) float64 {
	y := f.gain*x + f.a1*f.y1 + f.a2*f.y2
	f.y2, f.y1 = f.y1, y
	return y
}

// Span marks the sample range [Start, End) occupied by one phone in a
// synthesized utterance.
type Span struct {
	Phone      string
	Start, End int
}

// SynthesizePhones renders a sequence of phone names into samples.
// Unknown phone names render as silence of nominal duration.
func (s *Synthesizer) SynthesizePhones(phones []string) []float64 {
	samples, _ := s.SynthesizeAligned(phones)
	return samples
}

// SynthesizeAligned renders phones and also returns the per-phone sample
// spans, which acoustic-model training uses for frame alignment (the
// stand-in for the forced alignment a real ASR training pipeline runs).
func (s *Synthesizer) SynthesizeAligned(phones []string) ([]float64, []Span) {
	var out []float64
	spans := make([]Span, 0, len(phones))
	for _, name := range phones {
		start := len(out)
		idx, ok := PhoneIndex[name]
		if !ok {
			out = append(out, make([]float64, int(0.06*float64(s.SampleRate)))...)
		} else {
			out = append(out, s.renderPhone(inventory[idx])...)
		}
		spans = append(spans, Span{Phone: name, Start: start, End: len(out)})
	}
	return out, spans
}

func (s *Synthesizer) renderPhone(p phone) []float64 {
	sr := float64(s.SampleRate)
	durJitter := 1 + 0.15*(s.rng.Float64()*2-1)
	n := int(p.BaseDur * durJitter * sr)
	samples := make([]float64, n)
	if p.Name == "sil" {
		// Vary the noise floor across renditions: real silence spans quiet
		// rooms to street noise, and a silence model trained on a single
		// amplitude is pathologically brittle to added noise.
		amp := 0.0005 * math.Pow(10, 1.2*s.rng.Float64()) // 0.0005 .. ~0.008
		for i := range samples {
			samples[i] = amp * s.rng.NormFloat64()
		}
		return samples
	}
	pitch := s.Pitch * (1 + 0.08*(s.rng.Float64()*2-1))
	f1 := p.F1 * (1 + 0.04*(s.rng.Float64()*2-1))
	f2 := p.F2 * (1 + 0.04*(s.rng.Float64()*2-1))
	var r1, r2 *resonator
	if f1 > 0 {
		r1 = newResonator(f1, 90, sr)
	}
	if f2 > 0 {
		r2 = newResonator(f2, 120, sr)
	}
	period := int(sr / pitch)
	burstEnd := 0
	start := 0
	if p.Stop {
		// Closure (silence) for the first 40% of the phone, then burst.
		start = int(0.4 * float64(n))
		burstEnd = start + int(0.15*float64(n))
	}
	for i := start; i < n; i++ {
		var src float64
		if p.Noise > 0 {
			src += p.Noise * s.rng.NormFloat64()
		}
		if p.F1 > 0 && !p.Stop {
			// Glottal pulse train: an impulse at the start of each period
			// with a decaying tail approximates the source.
			phase := i % period
			src += (1 - p.Noise) * math.Exp(-float64(phase)/(0.08*float64(period))) * 2
		}
		if p.Stop && i < burstEnd {
			src *= 3 // release burst
		} else if p.Stop {
			src *= 0.3
		}
		y := src
		if r1 != nil {
			y = r1.filter(y)
		}
		if r2 != nil {
			y = 0.5*y + 0.5*r2.filter(src)
		}
		// Attack/decay envelope avoids clicks at phone boundaries.
		env := 1.0
		edge := int(0.01 * sr)
		if i-start < edge {
			env = float64(i-start) / float64(edge)
		}
		if n-i < edge {
			env = math.Min(env, float64(n-i)/float64(edge))
		}
		samples[i] = y * env * 0.5
	}
	return samples
}

// AddNoise returns a copy of samples with white Gaussian noise mixed in
// at the given signal-to-noise ratio (dB). Robustness evaluations use it
// to simulate far-field or noisy-channel capture.
func AddNoise(samples []float64, snrDB float64, seed int64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	var power float64
	for _, s := range samples {
		power += s * s
	}
	power /= float64(len(samples))
	noisePower := power / math.Pow(10, snrDB/10)
	std := math.Sqrt(noisePower)
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s + rng.NormFloat64()*std
	}
	return out
}
