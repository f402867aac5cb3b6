package kb

import (
	"testing"

	"sirius/internal/search"
)

func TestShardOfCoversExactlyOnce(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		counts := make([]int, shards)
		for id := 0; id < 10000; id++ {
			s := ShardOf(id, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
			}
			counts[s]++
		}
		// Hash partitioning should be roughly balanced: no shard under
		// half or over double its fair share.
		fair := 10000 / shards
		for s, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Fatalf("shards=%d: shard %d holds %d of 10000 (fair %d)", shards, s, c, fair)
			}
		}
	}
}

func TestShardOfDeterministic(t *testing.T) {
	for id := 0; id < 100; id++ {
		if ShardOf(id, 4) != ShardOf(id, 4) {
			t.Fatal("ShardOf must be deterministic")
		}
	}
	if ShardOf(123, 1) != 0 || ShardOf(123, 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
}

// collectDocs materializes every (globalID, title, body) of an index.
func collectDocs(ix *search.Index) map[int][2]string {
	out := map[int][2]string{}
	for i := 0; i < ix.Len(); i++ {
		d := ix.Doc(i)
		out[d.GlobalID] = [2]string{d.Title, d.Body}
	}
	return out
}

func TestCorpusShardsPartitionExactly(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DistractorDocs = 50 // keep the test fast
	whole := map[int][2]string{}
	forEachCorpusDoc(cfg, func(id int, title, body string) { whole[id] = [2]string{title, body} })
	for _, shards := range []int{1, 2, 4} {
		union := map[int][2]string{}
		total := 0
		for s := 0; s < shards; s++ {
			part := BuildCorpusShard(cfg, s, shards)
			total += part.Len()
			for gid, doc := range collectDocs(part) {
				if _, dup := union[gid]; dup {
					t.Fatalf("shards=%d: doc %d in two shards", shards, gid)
				}
				union[gid] = doc
			}
		}
		if total != len(whole) {
			t.Fatalf("shards=%d: %d sharded docs vs %d whole", shards, total, len(whole))
		}
		for gid, doc := range whole {
			if union[gid] != doc {
				t.Fatalf("shards=%d: doc %d text differs between shard and whole corpus", shards, gid)
			}
		}
	}
}

func TestCorpusShardLocalIDsMonotoneInGlobal(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DistractorDocs = 50
	part := BuildCorpusShard(cfg, 1, 2)
	prev := -1
	for i := 0; i < part.Len(); i++ {
		g := part.Doc(i).GlobalID
		if g <= prev {
			t.Fatalf("global IDs not ascending in local order: %d after %d", g, prev)
		}
		prev = g
	}
}

func TestSynthShardsMatchWholeCorpus(t *testing.T) {
	cfg := SynthConfig{Docs: 500, Vocab: 256, Words: 12, Seed: 7}
	whole := collectDocs(BuildSynthCorpus(cfg))
	if len(whole) != cfg.Docs {
		t.Fatalf("whole corpus: %d docs", len(whole))
	}
	union := map[int][2]string{}
	for s := 0; s < 4; s++ {
		for gid, doc := range collectDocs(BuildSynthShard(cfg, s, 4)) {
			if _, dup := union[gid]; dup {
				t.Fatalf("doc %d in two shards", gid)
			}
			union[gid] = doc
		}
	}
	if len(union) != len(whole) {
		t.Fatalf("union %d docs vs whole %d", len(union), len(whole))
	}
	for gid, doc := range whole {
		if union[gid] != doc {
			t.Fatalf("doc %d differs", gid)
		}
	}
}

func TestSynthDocDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig()
	t1, b1 := SynthDoc(cfg, 42)
	t2, b2 := SynthDoc(cfg, 42)
	if t1 != t2 || b1 != b2 {
		t.Fatal("SynthDoc must be deterministic")
	}
	_, other := SynthDoc(cfg, 43)
	if b1 == other {
		t.Fatal("distinct docs should differ")
	}
	if SynthQuery(cfg, 5) != SynthQuery(cfg, 5) {
		t.Fatal("SynthQuery must be deterministic")
	}
	if SynthQuery(cfg, 5) == SynthQuery(cfg, 6) {
		t.Fatal("distinct queries should differ")
	}
}

func TestSynthQueriesHitCorpus(t *testing.T) {
	cfg := SynthConfig{Docs: 300, Vocab: 128, Words: 16, Seed: 3}
	ix := BuildSynthCorpus(cfg)
	hits := 0
	for i := 0; i < 20; i++ {
		if len(ix.Search(SynthQuery(cfg, i), 10)) > 0 {
			hits++
		}
	}
	if hits < 15 {
		t.Fatalf("only %d/20 synth queries hit the corpus", hits)
	}
}
