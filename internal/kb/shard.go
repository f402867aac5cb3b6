package kb

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"sirius/internal/search"
)

// This file is the corpus half of the sharded search tier (paper §3's
// leaf/aggregator web-search topology): deterministic partitioning of
// the kb corpus across N leaf shards, and a synthetic corpus generator
// that scales to millions of documents without any shard having to
// materialize the others' text.

// ShardOf maps a document's global ID to its owning shard via FNV-1a
// over the ID bytes. Every process computes the same assignment, so a
// leaf can build exactly its slice of the corpus independently.
func ShardOf(globalID, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(globalID)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime64
	}
	return int(h % uint64(shards))
}

// forEachCorpusDoc replays the corpus generation scan, invoking fn for
// every document in global-ID order with the exact text BuildCorpus
// would index. The scan is a single deterministic rng sequence, so a
// shard builder must walk all documents (generation is cheap) even
// though it indexes only its own.
func forEachCorpusDoc(cfg CorpusConfig, fn func(globalID int, title, body string)) {
	rng := rand.New(rand.NewSource(corpusSeed))
	filler := func() string {
		var sb strings.Builder
		for s := 0; s < fillerSentences; s++ {
			n := 5 + rng.Intn(8)
			for w := 0; w < n; w++ {
				sb.WriteString(fillerWords[rng.Intn(len(fillerWords))])
				sb.WriteByte(' ')
			}
			sb.WriteString(". ")
		}
		return sb.String()
	}
	id := 0
	for fi, f := range facts {
		phrases := relationPhrases[f.Relation]
		for p := 0; p < paraphraseCount(fi); p++ {
			sentence := fmt.Sprintf(phrases[p%len(phrases)], f.Subject, f.Object)
			title := fmt.Sprintf("%s %s", f.Subject, f.Relation)
			fn(id, title, strings.ToLower(sentence)+". "+filler())
			id++
		}
	}
	for d := 0; d < cfg.DistractorDocs; d++ {
		fn(id, fmt.Sprintf("misc %d", d), filler())
		id++
	}
}

// BuildCorpusShard builds the index holding shard's partition of the
// corpus (globalIDs with ShardOf(id, shards) == shard). Documents are
// added in ascending global order, so shard-local ranking ties agree
// with whole-corpus ties.
func BuildCorpusShard(cfg CorpusConfig, shard, shards int) *search.Index {
	var b search.Builder
	forEachCorpusDoc(cfg, func(id int, title, body string) {
		if ShardOf(id, shards) == shard {
			b.Add(id, title, body)
		}
	})
	return b.Build()
}

// SynthConfig sizes the synthetic web-scale corpus. Unlike CorpusConfig
// the generator is per-document deterministic: document i's text depends
// only on (Seed, i), so a shard materializes its millions of documents
// without replaying anyone else's.
type SynthConfig struct {
	Docs  int // corpus-wide document count
	Vocab int // distinct body terms (Zipf-distributed)
	Words int // body words per document
	Seed  int64
}

// DefaultSynthConfig returns the shape the shard_search benchmarks use;
// scale Docs up for larger sweeps.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Docs: 100_000, Vocab: 4096, Words: 24, Seed: 99}
}

// synthMix is a splitmix64-style finalizer giving each (seed, doc) pair
// an independent rng stream.
func synthMix(seed int64, id int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// synthTerm maps a draw r in [0, 1) to a vocab index with a heavily
// head-skewed (Zipf-like) distribution so document frequencies spread
// over orders of magnitude, as in a real web corpus.
func synthTerm(r float64, vocab int) int {
	return int(r * r * r * float64(vocab))
}

// SynthDoc returns document id of the synthetic corpus. Deterministic in
// (cfg.Seed, id) only.
func SynthDoc(cfg SynthConfig, id int) (title, body string) {
	g := synthGen{cfg: cfg}
	return g.doc(id)
}

// synthGen writes the synthetic corpus's documents one at a time, each
// from its own rng stream, into scratch it keeps, so that a warm
// generator allocates only a document's text.
type synthGen struct {
	cfg SynthConfig
	src synthSource
	buf []byte
}

// doc returns document id. Its title and body share one string.
func (g *synthGen) doc(id int) (title, body string) {
	g.src.seed(synthMix(g.cfg.Seed, id))
	g.buf = strconv.AppendInt(append(g.buf[:0], "synth doc "...), int64(id), 10)
	n := len(g.buf)
	for w := 0; w < g.cfg.Words; w++ {
		g.buf = append(g.buf, "term"...)
		g.buf = strconv.AppendInt(g.buf, int64(synthTerm(g.src.float64(), g.cfg.Vocab)), 10)
		g.buf = append(g.buf, ' ')
	}
	text := string(g.buf)
	return text[:n], text[n:]
}

// SynthQuery returns query i over the synthetic vocabulary (2-4 terms,
// deterministic), for load generation and benchmarks.
func SynthQuery(cfg SynthConfig, i int) string {
	rng := rand.New(rand.NewSource(synthMix(cfg.Seed^0x5157, i)))
	n := 2 + rng.Intn(3)
	parts := make([]string, n)
	for j := range parts {
		parts[j] = fmt.Sprintf("term%d", synthTerm(rng.Float64(), cfg.Vocab))
	}
	return strings.Join(parts, " ")
}

// BuildSynthCorpus indexes the whole synthetic corpus in one index (the
// oracle for shard parity checks, and the 1-shard benchmark baseline): the
// one-shard case of BuildSynthShard.
func BuildSynthCorpus(cfg SynthConfig) *search.Index {
	return BuildSynthShard(cfg, 0, 1)
}

// BuildSynthShard indexes shard's partition of the synthetic corpus.
// Generation cost is proportional to the shard's own document count:
// one generator writes the shard's documents in turn.
func BuildSynthShard(cfg SynthConfig, shard, shards int) *search.Index {
	var b search.Builder
	g := synthGen{cfg: cfg}
	for id := 0; id < cfg.Docs; id++ {
		if ShardOf(id, shards) != shard {
			continue
		}
		title, body := g.doc(id)
		b.Add(id, title, body)
	}
	return b.Build()
}
