package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sirius/internal/kb"
	"sirius/internal/search"
)

// diffResponse names the first field in which two responses differ, or
// returns "". Slices compare by length and elements.
func diffResponse(want, got Response) string {
	switch {
	case want.Shard != got.Shard, want.Shards != got.Shards:
		return fmt.Sprintf("shard %d/%d, want %d/%d", got.Shard, got.Shards, want.Shard, want.Shards)
	case want.Docs != got.Docs, want.TotalLen != got.TotalLen:
		return fmt.Sprintf("docs %d len %d, want %d len %d", got.Docs, got.TotalLen, want.Docs, want.TotalLen)
	case !equalInts(want.DF, got.DF):
		return fmt.Sprintf("df %v, want %v", got.DF, want.DF)
	case len(want.Postings) != len(got.Postings):
		return fmt.Sprintf("%d postings, want %d", len(got.Postings), len(want.Postings))
	}
	for i, w := range want.Postings {
		g := got.Postings[i]
		if w.GlobalID != g.GlobalID || w.Len != g.Len || !equalInts(w.TF, g.TF) || w.Title != g.Title || w.Body != g.Body {
			return fmt.Sprintf("posting %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// handBuilt are responses no corpus produces: empty and awkward text,
// zero postings and terms, and every count and value at its largest.
func handBuilt() []Response {
	most := Response{Shard: 3, Shards: 4, Docs: math.MaxInt, TotalLen: math.MaxInt, DF: make([]int, MaxTerms)}
	for i := range most.DF {
		most.DF[i] = i << i
	}
	for i := 0; i < Overfetch(MaxK); i++ {
		tf := make([]int, MaxTerms)
		for j := range tf {
			tf[j] = (i * j) % 300
		}
		most.Postings = append(most.Postings, Posting{
			GlobalID: math.MaxInt - i, Len: i * 1000, TF: tf,
			Title: strings.Repeat("t", i), Body: strings.Repeat("body ", i*10),
		})
	}
	return []Response{
		{DF: []int{}, Postings: []Posting{}},
		{Shard: 1, Shards: 2, Docs: 10, TotalLen: 100, DF: []int{0, 0}, Postings: []Posting{}},
		{Shards: 1, Docs: 3, TotalLen: 9, DF: []int{1}, Postings: []Posting{
			{GlobalID: 0, Len: 0, TF: []int{0}},
			{GlobalID: 7, Len: 3, TF: []int{2}, Title: `say "hi"`, Body: "line one\nline two\r\n\ttab\\"},
			{GlobalID: 128, Len: 1 << 20, TF: []int{1 << 40}, Title: "Zürich — 東京 🚀", Body: "\x00\xff\xfe not UTF-8"},
			{GlobalID: 16384, Len: 5, TF: []int{127}, Title: strings.Repeat("é", 100), Body: strings.Repeat("x", 300)},
		}},
		most,
	}
}

// TestWireRoundTrip holds the leaf frame to the Response it encodes, field
// for field: every response a kb-corpus leaf gives the parity queries,
// the benchmark's 256 seed-1 draws over the 100k-document corpus's 4
// leaves, and the hand-built edge cases.
func TestWireRoundTrip(t *testing.T) {
	check := func(name string, r Response) {
		t.Helper()
		frame := appendResponse(nil, &r)
		got, err := DecodeResponse(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffResponse(r, got); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	for i, r := range handBuilt() {
		check(fmt.Sprintf("hand-built %d", i), r)
	}
	cfg := kb.DefaultCorpusConfig()
	for _, n := range []int{1, 2, 4} {
		shards := buildShards(cfg, n)
		for _, q := range parityQueries {
			for _, k := range []int{10, MaxK} {
				for _, r := range execAll(shards, Request{Terms: search.QueryTerms(q), K: k}) {
					check(fmt.Sprintf("kb %q k=%d shard %d/%d", q, k, r.Shard, n), r)
				}
			}
		}
	}
	if testing.Short() {
		t.Skip("indexes the 100k-document synthetic corpus")
	}
	synth := kb.DefaultSynthConfig()
	_, shards := synthTier()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		q := kb.SynthQuery(synth, rng.Intn(1<<20))
		for _, r := range execAll(shards, Request{Terms: search.QueryTerms(q), K: 10}) {
			check(fmt.Sprintf("synth %q shard %d", q, r.Shard), r)
		}
	}
}

// TestDecodeResponseRejects: a frame the decoder cannot vouch for is an
// error, never a panic or an allocation sized by the frame's claims.
func TestDecodeResponseRejects(t *testing.T) {
	valid := appendResponse(nil, &handBuilt()[2])
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeResponse(valid[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte frame decoded", n, len(valid))
		}
	}
	for name, frame := range rejectedFrames() {
		if _, err := DecodeResponse(frame); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}

// rejectedFrames are whole frames that break one rule each.
func rejectedFrames() map[string][]byte {
	head := func(version byte, terms, postings int) []byte {
		b := []byte{version, 0, 1, 5, 50}
		b = binary.AppendUvarint(b, uint64(terms))
		for i := 0; i < terms; i++ {
			b = append(b, 1)
		}
		return binary.AppendUvarint(b, uint64(postings))
	}
	valid := appendResponse(nil, &handBuilt()[2])
	return map[string][]byte{
		"version 0":            append([]byte{0}, valid[1:]...),
		"version 2":            append([]byte{2}, valid[1:]...),
		"JSON":                 []byte(`{"shard":0,"shards":1,"docs":5,"total_len":50,"df":[],"postings":[]}`),
		"trailing byte":        append(append([]byte(nil), valid...), 0),
		"too many terms":       head(wireVersion, MaxTerms+1, 0),
		"too many postings":    append(head(wireVersion, 0, Overfetch(MaxK)+1), make([]byte, 4*(Overfetch(MaxK)+1))...),
		"postings beyond body": head(wireVersion, 1, 3),
		"string beyond body":   append(head(wireVersion, 0, 1), 0, 0, 200, 1, 'x'),
		"uvarint overflow":     append([]byte{wireVersion}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),
		"uvarint above MaxInt": append([]byte{wireVersion}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01),
		"non-shortest uvarint": append([]byte{wireVersion}, 0x80, 0x00),
	}
}

// FuzzDecodeResponse: no frame makes the decoder panic, and a frame it
// accepts is the one encoding of what it decoded to.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range handBuilt()[:3] {
		frame := appendResponse(nil, &r)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	shards := buildShards(kb.DefaultCorpusConfig(), 2)
	for _, r := range execAll(shards, Request{Terms: search.QueryTerms(parityQueries[0]), K: 10}) {
		f.Add(appendResponse(nil, &r))
	}
	for _, frame := range rejectedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		r, err := DecodeResponse(frame)
		if err != nil {
			return
		}
		if again := appendResponse(nil, &r); !bytes.Equal(again, frame) {
			t.Fatalf("frame %x decodes to %+v, which encodes to %x", frame, r, again)
		}
	})
}

// TestDecodeResponseAllocs: the one copy of the frame, the DF slice, the
// postings and the term frequencies, however many postings a frame holds.
// The race detector's instrumentation can move values to the heap, so this
// runs only without it.
func TestDecodeResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	shards := buildShards(kb.DefaultCorpusConfig(), 1)
	frames := [][]byte{}
	for _, r := range append(handBuilt(), execAll(shards, Request{Terms: search.QueryTerms("capital of italy"), K: 10})...) {
		frames = append(frames, appendResponse(nil, &r))
	}
	for i, frame := range frames {
		if n := testing.AllocsPerRun(50, func() { decodeSink, _ = DecodeResponse(frame) }); n > 4 {
			t.Fatalf("frame %d (%d bytes): %.0f allocations, want at most 4", i, len(frame), n)
		}
	}
}

var decodeSink Response

// BenchmarkDecodeResponse decodes one leaf's answer to a benchmark query:
// 40 postings of the 100k-document corpus, as the frontend's k = 10 asks.
func BenchmarkDecodeResponse(b *testing.B) {
	cfg := kb.DefaultSynthConfig()
	ix := kb.BuildSynthShard(cfg, 0, 4)
	r := Exec(ix, Request{Terms: search.QueryTerms(kb.SynthQuery(cfg, 1)), K: 10}, 0, 4)
	frame := appendResponse(nil, &r)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink, _ = DecodeResponse(frame)
	}
}
