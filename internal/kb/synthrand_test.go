package kb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSynthSourceMatchesMathRand holds the generator's draws to
// rand.New(rand.NewSource(seed)).Float64's bit for bit: over 2 000 draws,
// past both lags, for the seeds Seed reduces in each of its ways (0, a
// negative seed, one of 2^31-1's multiples and Seed's stand-in for 0),
// and over the 24 draws of every document of the default corpus.
func TestSynthSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	var src synthSource
	for _, seed := range []int64{0, 1, -1, m, -m, 2 * m, m - 1, math.MinInt64, -7_406_173_290_513_042_441, math.MaxInt64, zeroSeed} {
		rng := rand.New(rand.NewSource(seed))
		src.seed(seed)
		for j := 1; j <= 2000; j++ {
			if got, want := src.float64(), rng.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, draw %d: %v, math/rand %v", seed, j, got, want)
			}
		}
	}
	cfg := DefaultSynthConfig()
	for id := 0; id < cfg.Docs; id++ {
		seed := synthMix(cfg.Seed, id)
		rng := rand.New(rand.NewSource(seed))
		src.seed(seed)
		for j := 1; j <= cfg.Words; j++ {
			if got, want := src.float64(), rng.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("document %d, draw %d: %v, math/rand %v", id, j, got, want)
			}
		}
	}
}

// TestSynthCorpusDigest pins the default synthetic corpus byte for byte:
// SHA-256 over the documents in id order, each a little-endian uint64
// title length, the title and the body.
func TestSynthCorpusDigest(t *testing.T) {
	const want = "c3d37359daee490ccb0823857a75a1038bd741329453fa80bbe58c245f725cce"
	cfg := DefaultSynthConfig()
	h := sha256.New()
	var n [8]byte
	for id := 0; id < cfg.Docs; id++ {
		title, body := SynthDoc(cfg, id)
		binary.LittleEndian.PutUint64(n[:], uint64(len(title)))
		h.Write(n[:])
		h.Write([]byte(title))
		h.Write([]byte(body))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("corpus digest %s, want %s", got, want)
	}
}

// TestSynthGenAllocs holds a warm generator to one allocation a
// document, its text.
func TestSynthGenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	g := synthGen{cfg: DefaultSynthConfig()}
	id := 0
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1000, func() {
		g.doc(id)
		id++
	})
	if allocs > 1 {
		t.Fatalf("a warm generator: %v allocations a document, budget 1", allocs)
	}
}
