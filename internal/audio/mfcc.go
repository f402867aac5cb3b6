// Package audio is the speech substrate for Sirius: waveform generation,
// WAV encoding, and the MFCC feature-extraction front-end that feeds the
// automatic speech recognition (ASR) service (paper §2.3.1, Figure 4).
package audio

import (
	"fmt"
	"math"
)

// FrontEndConfig parameterizes MFCC extraction. The defaults mirror the
// classic Sphinx front-end: 16 kHz audio, 25 ms windows with a 10 ms hop,
// 512-point FFT, 26 mel filters, 13 cepstra with deltas and delta-deltas.
type FrontEndConfig struct {
	SampleRate int  // samples per second
	FrameLen   int  // samples per analysis window
	FrameShift int  // samples between successive windows
	FFTSize    int  // power of two >= FrameLen
	NumFilters int  // mel filterbank size
	NumCeps    int  // cepstral coefficients kept (incl. C0)
	Deltas     bool // append delta and delta-delta features
}

// preEmph is the pre-emphasis coefficient every frame is filtered with.
const preEmph = 0.97

// DefaultFrontEnd returns the standard 39-dimensional MFCC configuration.
func DefaultFrontEnd() FrontEndConfig {
	return FrontEndConfig{
		SampleRate: 16000,
		FrameLen:   400, // 25 ms
		FrameShift: 160, // 10 ms
		FFTSize:    512,
		NumFilters: 26,
		NumCeps:    13,
		Deltas:     true,
	}
}

// Dim returns the dimensionality of the produced feature vectors.
func (c FrontEndConfig) Dim() int {
	if c.Deltas {
		return c.NumCeps * 3
	}
	return c.NumCeps
}

// Validate reports whether c can drive a FrontEnd: every size positive,
// FFTSize a power of two no shorter than FrameLen, and no more cepstra
// than mel filters to take them from.
func (c FrontEndConfig) Validate() error {
	switch {
	case c.SampleRate <= 0 || c.FrameLen <= 0 || c.FrameShift <= 0 || c.FFTSize <= 0 || c.NumFilters <= 0 || c.NumCeps <= 0:
		return fmt.Errorf("audio: front-end sizes must be positive: %+v", c)
	case c.FFTSize&(c.FFTSize-1) != 0:
		return fmt.Errorf("audio: FFTSize %d is not a power of two", c.FFTSize)
	case c.FFTSize < c.FrameLen:
		return fmt.Errorf("audio: FFTSize %d is shorter than FrameLen %d", c.FFTSize, c.FrameLen)
	case c.NumCeps > c.NumFilters:
		return fmt.Errorf("audio: %d cepstra from %d mel filters", c.NumCeps, c.NumFilters)
	}
	return nil
}

// FrontEnd converts raw audio into MFCC feature vectors. It precomputes the
// Hamming window, the FFT's permutation and twiddle tables, the mel
// filterbank and the DCT-II matrix once, so a single FrontEnd can be
// shared by all queries (it is read-only after construction and safe for
// concurrent use).
type FrontEnd struct {
	cfg     FrontEndConfig
	window  []float64
	fft     fftTables
	filters [][]filterTap // one sparse triangular filter per mel band
	dct     [][]float64   // NumCeps x NumFilters
}

type filterTap struct {
	bin    int
	weight float64
}

// NewFrontEnd builds a FrontEnd for cfg. It panics if cfg does not
// Validate.
func NewFrontEnd(cfg FrontEndConfig) *FrontEnd {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fe := &FrontEnd{cfg: cfg, fft: newFFTTables(cfg.FFTSize)}
	fe.window = make([]float64, cfg.FrameLen)
	for i := range fe.window {
		fe.window[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(cfg.FrameLen-1))
	}
	fe.filters = melFilterbank(cfg.NumFilters, cfg.FFTSize, cfg.SampleRate)
	fe.dct = make([][]float64, cfg.NumCeps)
	for k := range fe.dct {
		fe.dct[k] = make([]float64, cfg.NumFilters)
		for n := 0; n < cfg.NumFilters; n++ {
			fe.dct[k][n] = math.Cos(math.Pi * float64(k) * (float64(n) + 0.5) / float64(cfg.NumFilters))
		}
	}
	return fe
}

// Config returns the front-end configuration.
func (fe *FrontEnd) Config() FrontEndConfig { return fe.cfg }

func hzToMel(hz float64) float64  { return 2595 * math.Log10(1+hz/700) }
func melToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

func melFilterbank(numFilters, fftSize, sampleRate int) [][]filterTap {
	lowMel := hzToMel(0)
	highMel := hzToMel(float64(sampleRate) / 2)
	points := make([]float64, numFilters+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numFilters+1)
		points[i] = melToHz(mel) / float64(sampleRate) * float64(fftSize)
	}
	filters := make([][]filterTap, numFilters)
	for m := 1; m <= numFilters; m++ {
		lo, mid, hi := points[m-1], points[m], points[m+1]
		var taps []filterTap
		for bin := int(math.Ceil(lo)); bin <= int(math.Floor(hi)) && bin <= fftSize/2; bin++ {
			b := float64(bin)
			var w float64
			switch {
			case b < mid && mid > lo:
				w = (b - lo) / (mid - lo)
			case b >= mid && hi > mid:
				w = (hi - b) / (hi - mid)
			}
			if w > 0 {
				taps = append(taps, filterTap{bin: bin, weight: w})
			}
		}
		filters[m-1] = taps
	}
	return filters
}

// frames returns the number of analysis frames extracted from n samples.
func (fe *FrontEnd) frames(n int) int {
	if n < fe.cfg.FrameLen {
		return 0
	}
	return 1 + (n-fe.cfg.FrameLen)/fe.cfg.FrameShift
}

// Extract computes the MFCC feature matrix for samples: one row per frame.
// It is a one-shot run of the streaming extractor, so chunked and
// whole-utterance extraction share a single implementation.
func (fe *FrontEnd) Extract(samples []float64) [][]float64 {
	se := fe.NewStreamExtractor()
	out := make([][]float64, 0, fe.frames(len(samples)))
	out = append(out, se.Push(samples)...)
	return append(out, se.Flush()...)
}
