package audio

import (
	"math"
	"math/rand"
	"testing"
)

// testUtterance synthesizes a short deterministic utterance with some
// leading silence so framing edge cases are exercised.
func testUtterance(t testing.TB) []float64 {
	t.Helper()
	syn := NewSynthesizer(1)
	speech := syn.SynthesizePhones([]string{"hh", "eh", "l", "ow", "w", "er", "l", "d"})
	samples := make([]float64, 800, 800+len(speech))
	return append(samples, speech...)
}

func extractChunked(fe *FrontEnd, samples []float64, chunks []int) [][]float64 {
	se := fe.NewStreamExtractor()
	var out [][]float64
	off := 0
	for _, c := range chunks {
		if off+c > len(samples) {
			c = len(samples) - off
		}
		out = append(out, se.Push(samples[off:off+c])...)
		off += c
	}
	if off < len(samples) {
		out = append(out, se.Push(samples[off:])...)
	}
	return append(out, se.Flush()...)
}

func requireFramesEqual(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frame count = %d, want %d", len(got), len(want))
	}
	for f := range want {
		if len(got[f]) != len(want[f]) {
			t.Fatalf("frame %d dim = %d, want %d", f, len(got[f]), len(want[f]))
		}
		for k := range want[f] {
			if math.Float64bits(got[f][k]) != math.Float64bits(want[f][k]) {
				t.Fatalf("frame %d coeff %d = %v, want %v (not bit-identical)", f, k, got[f][k], want[f][k])
			}
		}
	}
}

// TestStreamExtractorParity is the core guarantee behind streaming ASR:
// pushing an utterance through the extractor in chunks of any size
// yields exactly the frames of a whole-utterance Extract.
func TestStreamExtractorParity(t *testing.T) {
	samples := testUtterance(t)
	fe := NewFrontEnd(DefaultFrontEnd())
	want := fe.Extract(samples)
	if len(want) == 0 {
		t.Fatal("test utterance produced no frames")
	}
	for _, chunk := range []int{1, 7, 159, 160, 161, 400, 1600, 6400, len(samples)} {
		chunks := make([]int, 0, len(samples)/chunk+1)
		for off := 0; off < len(samples); off += chunk {
			chunks = append(chunks, chunk)
		}
		got := extractChunked(fe, samples, chunks)
		requireFramesEqual(t, want, got)
	}
}

// TestStreamExtractorParityRandomChunks covers uneven chunk boundaries,
// including chunks smaller than the frame overlap.
func TestStreamExtractorParityRandomChunks(t *testing.T) {
	samples := testUtterance(t)
	fe := NewFrontEnd(DefaultFrontEnd())
	want := fe.Extract(samples)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		var chunks []int
		total := 0
		for total < len(samples) {
			c := 1 + rng.Intn(2000)
			chunks = append(chunks, c)
			total += c
		}
		got := extractChunked(fe, samples, chunks)
		requireFramesEqual(t, want, got)
	}
}

// TestStreamExtractorNoDeltas checks the statics-only configuration,
// which has no lookahead and emits frames as soon as they are computed.
func TestStreamExtractorNoDeltas(t *testing.T) {
	cfg := DefaultFrontEnd()
	cfg.Deltas = false
	fe := NewFrontEnd(cfg)
	samples := testUtterance(t)
	want := fe.Extract(samples)
	got := extractChunked(fe, samples, []int{333, 333, 333})
	requireFramesEqual(t, want, got)

	se := fe.NewStreamExtractor()
	if fs := se.Push(samples[:cfg.FrameLen]); len(fs) != 1 {
		t.Fatalf("statics-only extractor emitted %d frames for one full window, want 1", len(fs))
	}
}

// TestStreamExtractorShortAudio: audio shorter than one analysis window
// yields zero frames from both paths.
func TestStreamExtractorShortAudio(t *testing.T) {
	fe := NewFrontEnd(DefaultFrontEnd())
	short := make([]float64, fe.Config().FrameLen-1)
	if got := fe.Extract(short); len(got) != 0 {
		t.Fatalf("Extract of short audio produced %d frames, want 0", len(got))
	}
	se := fe.NewStreamExtractor()
	if fs := se.Push(short); len(fs) != 0 {
		t.Fatalf("Push of short audio produced %d frames, want 0", len(fs))
	}
	if fs := se.Flush(); len(fs) != 0 {
		t.Fatalf("Flush after short audio produced %d frames, want 0", len(fs))
	}
	if se.Frames() != 0 {
		t.Fatalf("Frames() = %d, want 0", se.Frames())
	}
}

// TestStreamExtractorEmitsBeforeFlush: partial emission must not wait
// for end-of-stream — after enough audio, Push alone yields frames.
func TestStreamExtractorEmitsBeforeFlush(t *testing.T) {
	fe := NewFrontEnd(DefaultFrontEnd())
	samples := testUtterance(t)
	se := fe.NewStreamExtractor()
	emitted := 0
	for off := 0; off < len(samples); off += 1600 {
		end := off + 1600
		if end > len(samples) {
			end = len(samples)
		}
		emitted += len(se.Push(samples[off:end]))
	}
	if emitted == 0 {
		t.Fatal("no frames emitted before Flush")
	}
	tail := len(se.Flush())
	// The flush tail is exactly the delta lookahead.
	if tail != 4 {
		t.Fatalf("flush tail = %d frames, want 4", tail)
	}
	if got, want := emitted+tail, fe.frames(len(samples)); got != want {
		t.Fatalf("total frames = %d, want %d", got, want)
	}
}
