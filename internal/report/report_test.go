package report

import (
	"bytes"
	"encoding/csv"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sirius/internal/accel"
	"sirius/internal/dcsim"
	"sirius/internal/suite"
)

var sharedHarness *Harness

func harness(t testing.TB) *Harness {
	if sharedHarness == nil {
		h, err := NewHarness(suite.DefaultScale())
		if err != nil {
			panic(err)
		}
		sharedHarness = h
	}
	return sharedHarness
}

func TestFig7aGapIsLarge(t *testing.T) {
	h := harness(t)
	r, err := h.RunFig7a()
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: a Sirius query needs orders of magnitude more
	// compute than a web-search query (paper: ~165x; assert >= 20x here,
	// as absolute ratios are machine- and scale-dependent).
	if r.Gap < 20 {
		t.Fatalf("gap %.1fx too small: %+v", r.Gap, r)
	}
	if !strings.Contains(r.String(), "scalability gap") {
		t.Fatal("formatting")
	}
}

func TestFig7bOrdering(t *testing.T) {
	h := harness(t)
	r, err := h.RunFig7b()
	if err != nil {
		t.Fatal(err)
	}
	if !(r.WS < r.VC && r.VC < r.VQ && r.VQ <= r.VIQ) {
		t.Fatalf("class ordering violated: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("formatting")
	}
}

func TestFig8aQAWidest(t *testing.T) {
	h := harness(t)
	rows, err := h.RunFig8a()
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[string]float64{}
	for _, r := range rows {
		ratio[r.Service] = r.Ratio
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Fatalf("inconsistent spread: %+v", r)
		}
	}
	// Fig 8a: QA has by far the widest relative variability.
	if !(ratio["QA"] > ratio["IMM"] && ratio["QA"] > ratio["ASR"]) {
		t.Fatalf("QA variability %.1fx must exceed ASR %.1fx and IMM %.1fx", ratio["QA"], ratio["ASR"], ratio["IMM"])
	}
	if FormatFig8a(rows) == "" {
		t.Fatal("formatting")
	}
}

func TestFig8bcCorrelation(t *testing.T) {
	h := harness(t)
	rows, corr, err := h.RunFig8bc()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The paper's Fig 8c point: latency tracks filter hits.
	if corr < 0.3 {
		t.Fatalf("latency/filter-hit correlation %.2f too weak", corr)
	}
	if FormatFig8bc(rows, corr) == "" {
		t.Fatal("formatting")
	}
}

func TestPearson(t *testing.T) {
	if p := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(p-1) > 1e-12 {
		t.Fatalf("perfect correlation: %v", p)
	}
	if p := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(p+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation: %v", p)
	}
	if pearson([]float64{1}, []float64{1}) != 0 {
		t.Fatal("degenerate input")
	}
	if pearson([]float64{1, 1}, []float64{1, 2}) != 0 {
		t.Fatal("zero variance")
	}
}

func TestFig9HotComponentsDominate(t *testing.T) {
	h := harness(t)
	rows, err := h.RunFig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HotShare < 0.5 {
			t.Errorf("%s hot share %.2f below 0.5", r.Service, r.HotShare)
		}
	}
	if FormatFig9(rows) == "" {
		t.Fatal("formatting")
	}
}

func TestFig10Format(t *testing.T) {
	out := FormatFig10()
	if !strings.Contains(out, "bound") || !strings.Contains(out, "gmm") {
		t.Fatalf("fig10 output: %s", out)
	}
}

func TestTable5LiveCMPSpeedup(t *testing.T) {
	h := harness(t)
	// The live speedup is a ratio of two wall-clock measurements taken
	// while other packages' tests compete for the cores, so a table with
	// no parallel win is measured again (up to three times) before it
	// counts as one.
	var rows []Table5Row
	atLeastOneParallelWin := false
	for attempt := 0; attempt < 3 && !atLeastOneParallelWin; attempt++ {
		rows = h.RunTable5(4, 5*time.Millisecond)
		if len(rows) != 7 {
			t.Fatalf("rows: %d", len(rows))
		}
		for _, r := range rows {
			if r.MeasuredCMP > 1.3 {
				atLeastOneParallelWin = true
			}
			if r.Calibrated[accel.GPU] <= 0 || r.Analytic[accel.GPU] <= 0 {
				t.Fatalf("missing model speedups: %+v", r)
			}
		}
	}
	if !atLeastOneParallelWin && runtime.GOMAXPROCS(0) > 1 {
		t.Error("no kernel showed live multicore speedup")
	}
	if FormatTable5(rows) == "" {
		t.Fatal("formatting")
	}
}

func TestMeasuredServiceTimes(t *testing.T) {
	h := harness(t)
	times, err := h.MeasureServiceTimes()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range accel.Services {
		st, ok := times[svc]
		if !ok {
			t.Fatalf("missing %s", svc)
		}
		if st.Total() <= 0 {
			t.Fatalf("%s total %v", svc, st.Total())
		}
	}
	// Second call reuses the cache.
	again, err := h.MeasureServiceTimes()
	if err != nil || &again == &times {
		_ = again
	}
}

func TestDCFormatsRender(t *testing.T) {
	h := harness(t)
	for _, measured := range []bool{false, true} {
		d, err := h.DesignFor(measured)
		if err != nil {
			t.Fatal(err)
		}
		if FormatFig14(d) == "" || FormatFig15(d) == "" || FormatFig16(d) == "" {
			t.Fatal("fig 14-16 formatting")
		}
		if s, err := FormatFig17(d); err != nil || s == "" {
			t.Fatalf("fig17: %v", err)
		}
		if s, err := FormatFig18(d); err != nil || s == "" {
			t.Fatalf("fig18: %v", err)
		}
		if s, err := FormatFig19(d); err != nil || s == "" {
			t.Fatalf("fig19: %v", err)
		}
		if FormatTable8(d) == "" {
			t.Fatal("table8")
		}
		if s, err := FormatTable9(d); err != nil || s == "" {
			t.Fatalf("table9: %v", err)
		}
		if s, err := FormatFig20(d); err != nil || s == "" {
			t.Fatalf("fig20: %v", err)
		}
		if s, err := FormatFig21(d, 165); err != nil || s == "" {
			t.Fatalf("fig21: %v", err)
		}
	}
}

func TestMeasuredDesignPreservesHeadlines(t *testing.T) {
	// Even with service times measured from the live Go pipeline (not the
	// paper-scale defaults), the key platform orderings must hold.
	h := harness(t)
	d, err := h.DesignFor(true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.ChooseHomogeneous(dcsim.MinLatency, dcsim.WithFPGA)
	if err != nil {
		t.Fatal(err)
	}
	if c.Platform != accel.FPGA && c.Platform != accel.GPU {
		t.Fatalf("measured min-latency choice: %+v", c)
	}
	gpuLat, _, err := d.AverageClassMetrics(accel.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if gpuLat <= 1 {
		t.Fatalf("GPU latency reduction %.2f must exceed 1", gpuLat)
	}
}

func TestLiveQueueValidation(t *testing.T) {
	h := harness(t)
	v, err := h.RunLiveQueueValidation(0.5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if v.SimResponse <= v.MeanService {
		t.Fatalf("queueing must add delay: %+v", v)
	}
	// Real (sub-exponential) service times should not exceed the M/M/1
	// prediction by much; allow slack for heavy-tailed timing noise.
	if v.SimResponse > 3*v.MM1Prediction {
		t.Fatalf("simulated response %v far above M/M/1 %v", v.SimResponse, v.MM1Prediction)
	}
	if v.String() == "" {
		t.Fatal("formatting")
	}
}

func TestEndToEndEval(t *testing.T) {
	h := harness(t)
	ev, err := h.RunEndToEndEval(12000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.VCTotal != 16 || ev.TextQATotal != 16 || ev.VoiceQATotal != 16 || ev.VIQTotal != 10 {
		t.Fatalf("coverage: %+v", ev)
	}
	if ev.VCCorrect < 10 {
		t.Errorf("voice commands %d/16", ev.VCCorrect)
	}
	if ev.TextQACorrect < 14 {
		t.Errorf("text QA %d/16", ev.TextQACorrect)
	}
	if ev.VoiceQACorrect < 11 {
		t.Errorf("voice QA %d/16", ev.VoiceQACorrect)
	}
	if ev.VIQCorrect < 7 {
		t.Errorf("VIQ %d/10", ev.VIQCorrect)
	}
	if ev.MeanWER < 0 || ev.MeanWER > 0.7 {
		t.Errorf("mean WER %.2f out of band", ev.MeanWER)
	}
	if ev.String() == "" {
		t.Fatal("formatting")
	}
}

func TestDumpCSV(t *testing.T) {
	d := dcsim.NewDesign()
	var buf bytes.Buffer
	if err := DumpCSV(d, &buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 100 {
		t.Fatalf("only %d CSV rows", len(records))
	}
	if strings.Join(records[0], ",") != "experiment,subject,platform,metric,value" {
		t.Fatalf("header: %v", records[0])
	}
	exps := map[string]int{}
	for _, rec := range records[1:] {
		if len(rec) != 5 {
			t.Fatalf("ragged row: %v", rec)
		}
		if _, err := strconv.ParseFloat(rec[4], 64); err != nil {
			t.Fatalf("non-numeric value in %v", rec)
		}
		exps[rec[0]]++
	}
	for _, want := range []string{"tab5", "fig14", "fig15", "fig16", "fig17", "fig18", "fig20", "fig21"} {
		if exps[want] == 0 {
			t.Errorf("experiment %s missing from CSV", want)
		}
	}
}

func TestFig17Tail(t *testing.T) {
	d := dcsim.NewDesign()
	out, err := FormatFig17Tail(d, 0.5)
	if err != nil || !strings.Contains(out, "p99") {
		t.Fatalf("tail format: %v %q", err, out)
	}
}
