package suite

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sirius/internal/nlp/stemmer"
)

var benches map[Kernel]*Benchmark

func suiteBenches() map[Kernel]*Benchmark {
	if benches == nil {
		benches = Build(smallScale())
	}
	return benches
}

func TestBuildCoversAllSevenKernels(t *testing.T) {
	b := suiteBenches()
	if len(b) != 7 {
		t.Fatalf("built %d kernels, want 7", len(b))
	}
	for _, k := range Kernels {
		bench, ok := b[k]
		if !ok {
			t.Fatalf("kernel %s missing", k)
		}
		if bench.Items <= 0 {
			t.Fatalf("kernel %s has no input items", k)
		}
		if bench.Info.Service == "" || bench.Info.Baseline == "" {
			t.Fatalf("kernel %s missing Table 4 metadata", k)
		}
	}
}

func TestTable4Metadata(t *testing.T) {
	services := map[string]int{}
	for _, k := range Kernels {
		services[table4[k].Service]++
	}
	// 2 ASR + 3 QA + 2 IMM kernels (paper Table 4).
	if services["ASR"] != 2 || services["QA"] != 3 || services["IMM"] != 2 {
		t.Fatalf("service split: %v", services)
	}
}

func TestAllKernelsRunSerialAndParallel(t *testing.T) {
	for _, k := range Kernels {
		bench := suiteBenches()[k]
		bench.Run(1)
		bench.Run(4)
	}
}

func TestMeasureReportsSaneNumbers(t *testing.T) {
	bench := suiteBenches()[KernelStemmer]
	m := Measure(bench, 1, 10*time.Millisecond)
	if m.PerRun <= 0 || m.Runs == 0 {
		t.Fatalf("measurement: %+v", m)
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

// TestParallelSpeedupOnBigKernel pins what the CMP speed-up rests on
// rather than timing it: on the 200 k-word list, the stemmer kernel at
// every width ≥ 2 gives exactly its width-1 output. That the
// pool splits the list into disjoint ranges covering it once is pinned
// by mat's TestParallelCoversRangeExactlyOnce; the measured speed-up
// (the paper's CMP column, ~4× on 4 cores) is reported by
// `sirius-bench -experiment tab5`, where no other test competes for the
// cores.
func TestParallelSpeedupOnBigKernel(t *testing.T) {
	words := stemmerWords(200000, rand.New(rand.NewSource(1)))
	want := stemmer.StemAll(words, 1)
	for _, width := range []int{2, 3, 4, runtime.GOMAXPROCS(0)} {
		if width < 2 {
			continue
		}
		got := stemmer.StemAll(words, width)
		if len(got) != len(want) {
			t.Fatalf("width %d: %d stems for %d words", width, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d: word %d %q stems to %q, width 1 %q", width, i, words[i], got[i], want[i])
			}
		}
	}
}

// smallScale keeps unit tests fast.
func smallScale() Scale {
	return Scale{
		GMMSenones:    32,
		GMMFrames:     8,
		DNNBatch:      32,
		StemmerWords:  2000,
		RegexPatterns: 20,
		RegexTexts:    50,
		CRFSentences:  40,
		ImageSize:     128,
		Seed:          1,
	}
}
