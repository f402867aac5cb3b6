package audio

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReadWAV hardens the WAV chunk walker against malformed headers:
// arbitrary bytes must either parse into a finite sample slice or return
// an error — never panic or over-allocate.
func FuzzReadWAV(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteWAV(&valid, []float64{0, 0.5, -0.5}, 16000); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RIFF"))
	f.Add([]byte("RIFF\x00\x00\x00\x00WAVEfmt "))
	truncated := append([]byte(nil), valid.Bytes()...)
	f.Add(truncated[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		samples, sr, err := ReadWAV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sr < 0 || len(samples) > len(data) {
			t.Fatalf("parsed %d samples at rate %d from %d bytes", len(samples), sr, len(data))
		}
		for _, s := range samples {
			if s < -1.01 || s > 1.01 {
				t.Fatalf("sample out of range: %v", s)
			}
		}
	})
}

// FuzzPowerSpectrumBitExact holds the front end's table-driven transform
// to the reference FFT on arbitrary frames: bytes decode as 16-bit PCM,
// as a WAV body would, and every bin must match bit for bit at the
// default 512-point size.
func FuzzPowerSpectrumBitExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x7f})
	f.Add(bytes.Repeat([]byte{0x00, 0x80, 0xff, 0x7f}, 256))
	f.Add(bytes.Repeat([]byte{0x34, 0x12}, 400))
	fe := NewFrontEnd(DefaultFrontEnd())
	n := fe.Config().FFTSize
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := make([]float64, min(len(data)/2, n))
		for i := range frame {
			frame[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 32768
		}
		got := make([]float64, n/2+1)
		fe.fft.powerSpectrum(got, make([]complex128, n), frame)
		for i, want := range PowerSpectrum(frame, n) {
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%d samples: bin %d = %v, reference %v", len(frame), i, got[i], want)
			}
		}
	})
}
