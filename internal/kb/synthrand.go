package kb

import (
	"math/rand"
	"sync"
)

// synthSource gives the draws of rand.New(rand.NewSource(seed)).Float64,
// bit for bit, without seeding math/rand's 607-word register.
//
// math/rand's source is an additive lagged-Fibonacci generator: output j
// is y[j] = y[j-273] + y[j-607] (mod 2^64), and for k <= 0, y[k] is word
// (334-k) mod 607 of the register Seed fills. Seed fills word i from
// three steps of a Lehmer generator, x[n] = s * 48271^n mod (2^31-1),
// XORed with a fixed table of 607 words (rngCooked):
//
//	word i = x[20+3i+1]<<40 ^ x[20+3i+2]<<20 ^ x[20+3i+3] ^ rngCooked[i]
//
// Seeding walks all 1 841 Lehmer steps. A document reads 24 draws, which
// need 48 words, and each word is three products against a table of the
// powers of 48271, so synthSource computes only the words its draws read.
// Past draw 273 a draw reads earlier draws, which it keeps, so it serves
// any number of draws.
type synthSource struct {
	t *synthTables
	s uint64 // the seed as Seed reduces it, in [1, 2^31-2]
	n int    // draws made
	// y holds the last 607 draws: draw j at (j-1) % 607.
	y [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // register word of y[0]
	// The Lehmer generator that seeds the register, and the steps it
	// takes before it fills word 0.
	lehmerA    = 48271
	lehmerM    = 1<<31 - 1
	lehmerSkip = 20
	// Seed's stand-in for a seed that reduces to 0.
	zeroSeed = 89482311
)

// synthTables are the powers of 48271 that fill each register word and
// math/rand's rngCooked, recovered from the source itself.
type synthTables struct {
	pow    [rngLen][3]uint64 // 48271^(20+3i+1..3) mod 2^31-1
	cooked [rngLen]uint64
}

// tables builds synthTables once. rngCooked is not exported, so it is
// read back out of rand.NewSource(1): its first 607 outputs determine
// the register through the recurrence run backwards,
// y[j-607] = y[j] - y[j-273], and the register XOR seed 1's words is the
// table.
var tables = sync.OnceValue(func() *synthTables {
	t := new(synthTables)
	x := uint64(1)
	for n := 1; n <= lehmerSkip+3*rngLen; n++ {
		x = x * lehmerA % lehmerM
		if i := n - lehmerSkip - 1; i >= 0 {
			t.pow[i/3][i%3] = x
		}
	}
	// y[k] is at y[k+rngLen-1], for k in [-606, 607].
	var y [2 * rngLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for j := 1; j <= rngLen; j++ {
		y[j+rngLen-1] = src.Uint64()
	}
	for j := rngLen; j >= 1; j-- {
		y[j-1] = y[j+rngLen-1] - y[j-rngTap+rngLen-1]
	}
	for k := -(rngLen - 1); k <= 0; k++ {
		i := (rngFeed - k) % rngLen
		t.cooked[i] = y[k+rngLen-1] ^ t.lehmerWord(1, i)
	}
	return t
})

// lehmerWord is register word i before the XOR with rngCooked, for a
// seed s reduced as Seed reduces it.
func (t *synthTables) lehmerWord(s uint64, i int) uint64 {
	p := &t.pow[i]
	return s*p[0]%lehmerM<<40 ^ s*p[1]%lehmerM<<20 ^ s*p[2]%lehmerM
}

// seed starts the draws of rand.NewSource(seed).
func (r *synthSource) seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.t, r.s, r.n = tables(), uint64(seed), 0
}

// at returns y[k] for k <= r.n: a kept draw, or a register word.
func (r *synthSource) at(k int) uint64 {
	if k > 0 {
		return r.y[(k-1)%rngLen]
	}
	i := (rngFeed - k) % rngLen
	return r.t.lehmerWord(r.s, i) ^ r.t.cooked[i]
}

// uint64 returns the next draw of the source's Uint64.
func (r *synthSource) uint64() uint64 {
	r.n++
	v := r.at(r.n-rngTap) + r.at(r.n-rngLen)
	r.y[(r.n-1)%rngLen] = v
	return v
}

// float64 returns the next draw of rand.Rand's Float64, which draws
// again when the 63-bit draw rounds to 1.
func (r *synthSource) float64() float64 {
	for {
		if f := float64(int64(r.uint64()&(1<<63-1))) / (1 << 63); f != 1 {
			return f
		}
	}
}
