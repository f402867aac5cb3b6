package suite

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

var benches map[Kernel]*Benchmark

func suiteBenches() map[Kernel]*Benchmark {
	if benches == nil {
		benches = Build(SmallScale())
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
		services[Table4[k].Service]++
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

func TestParallelSpeedupOnBigKernel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU machine")
	}
	// The stemmer over a large list must get at least some speedup from
	// parallelism (the paper's CMP column is ~4x on 4 cores).
	s := SmallScale()
	s.StemmerWords = 200000
	bench := buildStemmer(s, rand.New(rand.NewSource(1)))
	// Two wall-clock measurements taken while other packages' tests
	// compete for the cores: measured again (up to three times) before a
	// missing speedup counts.
	var serial, par Measurement
	for attempt := 0; attempt < 3; attempt++ {
		serial = Measure(bench, 1, 50*time.Millisecond)
		par = Measure(bench, runtime.GOMAXPROCS(0), 50*time.Millisecond)
		if par.PerRun < serial.PerRun {
			return
		}
	}
	t.Fatalf("no parallel speedup: serial %v, parallel %v", serial.PerRun, par.PerRun)
}

func TestPaperScaleShapesMatchTable4(t *testing.T) {
	s := PaperScale()
	if s.StemmerWords != 4_000_000 {
		t.Fatalf("stemmer list %d, want the paper's 4M", s.StemmerWords)
	}
	if s.RegexPatterns != 100 || s.RegexTexts != 400 {
		t.Fatalf("regex input %dx%d, want 100x400", s.RegexPatterns, s.RegexTexts)
	}
}
