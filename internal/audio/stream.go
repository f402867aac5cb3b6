package audio

import "math"

// Streaming MFCC extraction. A StreamExtractor accepts audio in
// arbitrarily sized chunks and emits exactly the feature frames
// FrontEnd.Extract would produce for the concatenated samples — the
// one-shot path is in fact implemented on top of it, so there is a
// single feature-extraction implementation and chunked-vs-whole parity
// holds by construction. Two pieces of state carry across chunk
// boundaries:
//
//   - Sample overlap: analysis windows are FrameLen long but advance by
//     FrameShift, so FrameLen-FrameShift samples of every chunk's tail
//     (plus one extra sample for pre-emphasis, which differences against
//     the previous raw sample) belong to the next chunk's first frames.
//   - Delta lookahead: feature frame t carries regression deltas over
//     static frames t-4..t+4 (delta needs ±2 statics, delta-delta ±2
//     deltas), so emission trails static computation by deltaSpan frames
//     and Flush drains the tail once the final frame count — which the
//     end-clamped regression windows depend on — is known.
//
// Each frame is emitted as soon as its lookahead exists, so the statics
// live in a ring of the 2·deltaSpan+1 frames one emission can reach, and
// the extractor's scratch is sized once: pushing allocates only the
// rows it returns.
type StreamExtractor struct {
	fe *FrontEnd

	// buf holds unconsumed samples; buf[0] is the first sample of the
	// next analysis window and prev is the raw sample preceding it
	// (0 at stream start), which pre-emphasis differences against.
	buf  []float64
	prev float64

	// statics is the ring of static-cepstra frames: frame t is row
	// t % ringLen, NumCeps wide.
	statics []float64
	nStatic int // total static frames computed
	emitted int // feature frames emitted

	// Per-frame scratch: the windowed samples, the FFT's working buffer,
	// the power spectrum and the log mel energies.
	frame  []float64
	fftBuf []complex128
	spec   []float64
	logmel []float64
}

// deltaSpan is how many future static frames feature frame t depends
// on: the delta window is ±2 statics and the delta-delta window ±2
// deltas, so t sees statics up to t+4.
const deltaSpan = 4

// ringLen is how many statics one emission reads: t-deltaSpan..t+deltaSpan.
const ringLen = 2*deltaSpan + 1

// NewStreamExtractor starts a streaming extraction session.
func (fe *FrontEnd) NewStreamExtractor() *StreamExtractor {
	cfg := fe.cfg
	return &StreamExtractor{
		fe:      fe,
		statics: make([]float64, ringLen*cfg.NumCeps),
		frame:   make([]float64, cfg.FrameLen),
		fftBuf:  make([]complex128, cfg.FFTSize),
		spec:    make([]float64, cfg.FFTSize/2+1),
		logmel:  make([]float64, cfg.NumFilters),
	}
}

// Push appends a chunk of 16 kHz samples and returns the feature frames
// that became final — identical, bit for bit, to the corresponding rows
// of a whole-utterance Extract. It may return nothing (chunk shorter
// than the window overlap) or several frames. The returned rows share
// one slab allocated for this call and are not reused by the extractor.
func (se *StreamExtractor) Push(samples []float64) [][]float64 {
	cfg := se.fe.cfg
	se.buf = append(se.buf, samples...)
	windows := se.fe.frames(len(se.buf))
	out := se.rows(se.final(se.nStatic+windows) - se.emitted)
	head, i := 0, 0
	for w := 0; w < windows; w++ {
		se.staticFrame(se.buf[head:head+cfg.FrameLen], se.static(se.nStatic))
		se.nStatic++
		se.prev = se.buf[head+cfg.FrameShift-1]
		head += cfg.FrameShift
		// A frame is final once its full +deltaSpan lookahead exists:
		// every regression index it touches is then < nStatic <= the
		// final frame count, so the end-clamping a whole-utterance pass
		// would apply can no longer affect it.
		for ; se.emitted < se.final(se.nStatic); i++ {
			se.feature(out[i], se.emitted, -1)
			se.emitted++
		}
	}
	se.buf = se.buf[:copy(se.buf, se.buf[head:])]
	return out
}

// Flush ends the stream and returns the trailing frames whose delta
// windows were waiting on the (now known) final frame count. The
// extractor must not be pushed to afterwards.
func (se *StreamExtractor) Flush() [][]float64 {
	out := se.rows(se.nStatic - se.emitted)
	for i := range out {
		se.feature(out[i], se.emitted, se.nStatic)
		se.emitted++
	}
	return out
}

// Frames returns the number of feature frames emitted so far.
func (se *StreamExtractor) Frames() int { return se.emitted }

// final returns how many feature frames are final once n statics exist:
// all of them without deltas, all but the last deltaSpan with.
func (se *StreamExtractor) final(n int) int {
	if !se.fe.cfg.Deltas {
		return n
	}
	return max(n-deltaSpan, 0)
}

// rows returns n feature rows backed by one fresh slab (nil for n = 0).
func (se *StreamExtractor) rows(n int) [][]float64 {
	if n <= 0 {
		return nil
	}
	dim := se.fe.cfg.Dim()
	slab := make([]float64, n*dim)
	out := make([][]float64, n)
	for i := range out {
		out[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// static returns static frame t's row of the ring.
func (se *StreamExtractor) static(t int) []float64 {
	nc := se.fe.cfg.NumCeps
	r := t % ringLen
	return se.statics[r*nc : (r+1)*nc : (r+1)*nc]
}

// clampFrame clamps a regression index to the frames that exist: below
// to 0, above to n-1 when the total frame count n is known (n < 0
// mid-stream, where emission order guarantees the high clamp is moot).
func clampFrame(i, n int) int {
	if i < 0 {
		return 0
	}
	if n >= 0 && i >= n {
		return n - 1
	}
	return i
}

// deltaStatic computes the first-order regression delta of cepstrum k
// at frame t: sum(i*(x[t+i]-x[t-i])) / (2*sum(i^2)) over a ±2 window.
func (se *StreamExtractor) deltaStatic(t, k, n int) float64 {
	var num float64
	for i := 1; i <= 2; i++ {
		num += float64(i) * (se.static(clampFrame(t+i, n))[k] - se.static(clampFrame(t-i, n))[k])
	}
	return num / 10
}

// feature writes frame t's feature vector into v: its statics, then
// with deltas the delta and delta-delta regressions. n is the total
// frame count for end clamping (-1 while unknown).
func (se *StreamExtractor) feature(v []float64, t, n int) {
	copy(v, se.static(t))
	if !se.fe.cfg.Deltas {
		return
	}
	nc := se.fe.cfg.NumCeps
	for k := 0; k < nc; k++ {
		v[nc+k] = se.deltaStatic(t, k, n)
	}
	for k := 0; k < nc; k++ {
		var num float64
		for i := 1; i <= 2; i++ {
			num += float64(i) * (se.deltaStatic(clampFrame(t+i, n), k, n) - se.deltaStatic(clampFrame(t-i, n), k, n))
		}
		v[2*nc+k] = num / 10
	}
}

// staticFrame computes one frame of static cepstra into ceps from
// window w (len FrameLen), pre-emphasized against se.prev, the raw
// sample preceding w[0].
func (se *StreamExtractor) staticFrame(w, ceps []float64) {
	fe := se.fe
	prev := se.prev
	for i, s := range w {
		se.frame[i] = (s - preEmph*prev) * fe.window[i]
		prev = s
	}
	fe.fft.powerSpectrum(se.spec, se.fftBuf, se.frame)
	for m, taps := range fe.filters {
		var e float64
		for _, t := range taps {
			e += t.weight * se.spec[t.bin]
		}
		se.logmel[m] = math.Log(e + 1e-10)
	}
	for k, row := range fe.dct {
		var s float64
		for n, v := range se.logmel {
			s += row[n] * v
		}
		ceps[k] = s
	}
}
