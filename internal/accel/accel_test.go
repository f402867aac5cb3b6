package accel

import (
	"math"
	"testing"
	"time"

	"sirius/internal/suite"
)

func TestSpecsCoverAllPlatforms(t *testing.T) {
	for _, p := range append([]Platform{Baseline}, Platforms...) {
		s, ok := Specs[p]
		if !ok {
			t.Fatalf("missing spec for %s", p)
		}
		if s.TDPWatts <= 0 || s.CostUSD <= 0 {
			t.Fatalf("%s: power/cost not set", p)
		}
	}
}

func TestTable5Complete(t *testing.T) {
	for _, k := range suite.Kernels {
		row, ok := table5[k]
		if !ok {
			t.Fatalf("Table5 missing kernel %s", k)
		}
		for _, p := range Platforms {
			if row[p] <= 0 {
				t.Fatalf("Table5[%s][%s] missing", k, p)
			}
		}
	}
}

func TestSpeedupAccessors(t *testing.T) {
	if s, err := speedup(suite.KernelGMM, GPU); err != nil || s != 70.0 {
		t.Fatalf("GMM/GPU = %v, %v", s, err)
	}
	if s, err := speedup(suite.KernelGMM, Baseline); err != nil || s != 1 {
		t.Fatalf("baseline = %v, %v", s, err)
	}
	if _, err := speedup("nope", GPU); err == nil {
		t.Fatal("unknown kernel must error")
	}
	if _, err := speedup(suite.KernelGMM, "nope"); err == nil {
		t.Fatal("unknown platform must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSpeedup must panic on bad input")
		}
	}()
	MustSpeedup("nope", GPU)
}

// TestPaperHeadlineOrderings checks the qualitative results §4.4 calls
// out, straight from the calibrated table.
func TestPaperHeadlineOrderings(t *testing.T) {
	// FPGA beats GPU on GMM, Regex, Stemmer, FE; GPU beats FPGA on FD.
	for _, k := range []suite.Kernel{suite.KernelGMM, suite.KernelRegex, suite.KernelStemmer, suite.KernelFE} {
		if !(table5[k][FPGA] > table5[k][GPU]) {
			t.Errorf("%s: FPGA must beat GPU", k)
		}
	}
	if !(table5[suite.KernelFD][GPU] > table5[suite.KernelFD][FPGA]) {
		t.Error("FD: GPU must beat FPGA")
	}
	// Phi is below the CMP baseline for GMM and Regex (§5.1.1).
	if !(table5[suite.KernelGMM][Phi] < table5[suite.KernelGMM][CMP]) {
		t.Error("GMM: Phi must trail CMP")
	}
	// NLP kernels have similar, modest speedups across platforms (§4.4.2):
	// CRF's best/worst ratio is far below GMM's.
	crfSpread := table5[suite.KernelCRF][FPGA] / table5[suite.KernelCRF][CMP]
	gmmSpread := table5[suite.KernelGMM][FPGA] / table5[suite.KernelGMM][CMP]
	if crfSpread >= gmmSpread/5 {
		t.Errorf("CRF spread %.1f vs GMM %.1f: NLP must be flatter", crfSpread, gmmSpread)
	}
}

// TestAnalyticModelTracksTable5 requires the first-principles model to
// stay within a factor of 3 of the calibrated numbers for most entries
// and to reproduce the headline orderings.
func TestAnalyticModelTracksTable5(t *testing.T) {
	within := 0
	total := 0
	for _, k := range suite.Kernels {
		for _, p := range Platforms {
			got := AnalyticSpeedup(k, p)
			want := table5[k][p]
			total++
			ratio := got / want
			if ratio > 1 {
				ratio = 1 / ratio
			}
			if ratio > 1.0/3 {
				within++
			} else {
				t.Logf("analytic %s/%s = %.1f vs table %.1f", k, p, got, want)
			}
		}
	}
	if within < total*2/3 {
		t.Fatalf("only %d/%d analytic speedups within 3x of Table 5", within, total)
	}
	// Headline orderings hold in the analytic mode too.
	if !(AnalyticSpeedup(suite.KernelGMM, FPGA) > AnalyticSpeedup(suite.KernelGMM, Phi)) {
		t.Error("analytic: FPGA must beat Phi on GMM")
	}
	if !(AnalyticSpeedup(suite.KernelStemmer, GPU) < AnalyticSpeedup(suite.KernelGMM, GPU)) {
		t.Error("analytic: branchy stemmer must gain less on GPU than GMM")
	}
	if AnalyticSpeedup("nope", GPU) != 1 || AnalyticSpeedup(suite.KernelGMM, Baseline) != 1 {
		t.Error("analytic: unknown kernel/baseline must be 1")
	}
}

func TestAccelerateShrinksLatency(t *testing.T) {
	times := DefaultServiceTimes()
	for svc, st := range times {
		if err := Validate(st); err != nil {
			t.Fatalf("%s: %v", svc, err)
		}
		base := st.Total()
		for _, p := range Platforms {
			acc := Accelerate(st, p, Calibrated)
			if acc <= 0 || acc >= base {
				t.Errorf("%s on %s: %v not within (0, %v)", svc, p, acc, base)
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	times := DefaultServiceTimes()
	// FPGA fastest for ASR(GMM), QA, IMM; GPU fastest for ASR(DNN)
	// (paper §5.1.1: "FPGA outperforms the GPU for most of the services
	// except ASR (DNN/HMM)").
	for _, svc := range []Service{ServiceASRGMM, ServiceQA, ServiceIMM} {
		if !(Accelerate(times[svc], FPGA, Calibrated) < Accelerate(times[svc], GPU, Calibrated)) {
			t.Errorf("%s: FPGA must be fastest", svc)
		}
	}
	if !(Accelerate(times[ServiceASRDNN], GPU, Calibrated) < Accelerate(times[ServiceASRDNN], FPGA, Calibrated)) {
		t.Error("ASR(DNN): GPU must be fastest")
	}
	// Phi is slower than threaded CMP for most services (§5.1.1).
	slower := 0
	for _, svc := range Services {
		if Accelerate(times[svc], Phi, Calibrated) > Accelerate(times[svc], CMP, Calibrated) {
			slower++
		}
	}
	if slower < 2 {
		t.Errorf("Phi slower than CMP for only %d services", slower)
	}
}

func TestFig15Shape(t *testing.T) {
	times := DefaultServiceTimes()
	for _, svc := range Services {
		st := times[svc]
		fpga := PerfPerWatt(st, FPGA, Calibrated)
		// FPGA beats every other platform on perf/W by a wide margin.
		for _, p := range []Platform{CMP, GPU, Phi} {
			if fpga <= PerfPerWatt(st, p, Calibrated) {
				t.Errorf("%s: FPGA perf/W must dominate %s", svc, p)
			}
		}
		if PerfPerWatt(st, CMP, Calibrated) != 1 {
			t.Errorf("%s: CMP perf/W must normalize to 1", svc)
		}
	}
	// FPGA exceeds 12x energy efficiency over multicore on average (§5.1.2).
	var sum float64
	for _, svc := range Services {
		sum += PerfPerWatt(times[svc], FPGA, Calibrated)
	}
	if avg := sum / float64(len(Services)); avg < 12 {
		t.Errorf("FPGA mean perf/W %.1f < 12", avg)
	}
	// GPU perf/W beats CMP for 3 of 4 services, but not QA (§5.1.2).
	if PerfPerWatt(times[ServiceQA], GPU, Calibrated) >= 1 {
		t.Error("GPU perf/W on QA must trail CMP")
	}
	better := 0
	for _, svc := range []Service{ServiceASRGMM, ServiceASRDNN, ServiceIMM} {
		if PerfPerWatt(times[svc], GPU, Calibrated) > 1 {
			better++
		}
	}
	if better != 3 {
		t.Errorf("GPU perf/W better than CMP for %d/3 non-QA services", better)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := Validate(ServiceTimes{}); err == nil {
		t.Fatal("empty components must error")
	}
	if err := Validate(ServiceTimes{Components: map[suite.Kernel]time.Duration{"nope": time.Second}}); err == nil {
		t.Fatal("unknown kernel must error")
	}
	if err := Validate(ServiceTimes{Components: map[suite.Kernel]time.Duration{suite.KernelGMM: -1}}); err == nil {
		t.Fatal("negative time must error")
	}
	if err := Validate(ServiceTimes{
		Components: map[suite.Kernel]time.Duration{suite.KernelGMM: time.Second},
		Remainder:  -time.Second,
	}); err == nil {
		t.Fatal("negative remainder must error")
	}
}

func TestModeSelector(t *testing.T) {
	if speedupFor(suite.KernelGMM, GPU, Calibrated) != 70.0 {
		t.Fatal("calibrated mode")
	}
	a := speedupFor(suite.KernelGMM, GPU, Analytic)
	if a <= 1 || math.IsNaN(a) {
		t.Fatalf("analytic mode: %v", a)
	}
}
