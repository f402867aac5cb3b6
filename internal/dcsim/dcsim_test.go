package dcsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sirius/internal/accel"
)

func TestMM1ClosedForm(t *testing.T) {
	q := NewMM1(100 * time.Millisecond) // mu = 10/s
	r, err := q.ResponseTime(5)         // rho = 0.5
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Seconds()-0.2) > 1e-9 {
		t.Fatalf("R = %v, want 200ms", r)
	}
	if _, err := q.ResponseTime(10); err == nil {
		t.Fatal("unstable queue must error")
	}
	if _, err := q.ResponseTime(-1); err == nil {
		t.Fatal("negative lambda must error")
	}
}

func TestMM1ResponseTimeMonotoneInLoad(t *testing.T) {
	f := func(seed int64) bool {
		q := NewMM1(50 * time.Millisecond)
		l1 := math.Abs(float64(seed%1000)) / 1000 * q.ServiceRate * 0.9
		l2 := l1 + 0.05*q.ServiceRate
		r1, err1 := q.ResponseTime(l1)
		r2, err2 := q.ResponseTime(l2)
		return err1 == nil && err2 == nil && r2 > r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxThroughputInvertsResponseTime(t *testing.T) {
	q := NewMM1(100 * time.Millisecond)
	target := 400 * time.Millisecond
	lambda := q.maxThroughputAtResponseTime(target)
	r, err := q.ResponseTime(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Seconds()-target.Seconds()) > 1e-9 {
		t.Fatalf("round trip: %v != %v", r, target)
	}
	// A target faster than bare service time is infeasible.
	if q.maxThroughputAtResponseTime(50*time.Millisecond) != 0 {
		t.Fatal("infeasible target must give zero throughput")
	}
}

func TestThroughputImprovementProperties(t *testing.T) {
	base := 1 * time.Second
	acc := 100 * time.Millisecond
	// Fig 17: the lower the load, the larger the improvement; at high
	// load it approaches the Fig 16 saturation ratio.
	low, err := ThroughputImprovement(base, acc, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := ThroughputImprovement(base, acc, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sat := SaturationThroughputImprovement(base, acc)
	if !(low > high && high >= sat*0.9) {
		t.Fatalf("low=%v high=%v sat=%v: expected low > high >= sat", low, high, sat)
	}
	if sat != 10 {
		t.Fatalf("saturation ratio = %v", sat)
	}
	if _, err := ThroughputImprovement(base, acc, 0); err == nil {
		t.Fatal("rho=0 must error")
	}
	if _, err := ThroughputImprovement(base, acc, 1); err == nil {
		t.Fatal("rho=1 must error")
	}
}

func TestTCOBaselineServerCost(t *testing.T) {
	p := defaultTCOParams()
	cmp := p.ServerFor(accel.CMP)
	if cmp.PriceUSD != 2102 || cmp.PowerW != 163.6 {
		t.Fatalf("baseline server: %+v", cmp)
	}
	monthly := p.MonthlyServerTCO(cmp)
	// Sanity envelope: a $2102 / 164W server costs tens of dollars per
	// month under Table 7, dominated by capex amortization (~$58).
	if monthly < 60 || monthly > 150 {
		t.Fatalf("monthly TCO %v out of sane range", monthly)
	}
	// GPU adds card price and power.
	gpu := p.ServerFor(accel.GPU)
	if gpu.PriceUSD != 2102+399 || gpu.PowerW != 163.6+230 {
		t.Fatalf("gpu server: %+v", gpu)
	}
	if p.MonthlyServerTCO(gpu) <= monthly {
		t.Fatal("GPU server must cost more than bare host")
	}
}

func TestRelativeDCTCO(t *testing.T) {
	p := defaultTCOParams()
	// Speedup 1 on CMP = same DC.
	rel, err := p.RelativeDCTCO(accel.CMP, 1)
	if err != nil || math.Abs(rel-1) > 1e-12 {
		t.Fatalf("rel=%v err=%v", rel, err)
	}
	// Large speedup shrinks TCO despite a pricier server.
	rel, err = p.RelativeDCTCO(accel.GPU, 10)
	if err != nil || rel >= 1 {
		t.Fatalf("GPU at 10x: rel=%v err=%v", rel, err)
	}
	if _, err := p.RelativeDCTCO(accel.GPU, 0); err == nil {
		t.Fatal("zero speedup must error")
	}
	red, err := p.TCOReduction(accel.GPU, 10)
	if err != nil || math.Abs(red*rel-1) > 1e-12 {
		t.Fatal("TCOReduction must invert RelativeDCTCO")
	}
}

func TestFig18Shape(t *testing.T) {
	d := NewDesign()
	// GPU achieves a large TCO reduction for ASR(DNN) (paper: >8x).
	s := d.speedupOverCMP(accel.ServiceASRDNN, accel.GPU)
	red, err := d.TCO.TCOReduction(accel.GPU, s)
	if err != nil {
		t.Fatal(err)
	}
	if red < 4 {
		t.Fatalf("GPU ASR(DNN) TCO reduction %.1f, want >= 4", red)
	}
	// FPGA achieves a large TCO reduction for IMM (paper: >4x).
	s = d.speedupOverCMP(accel.ServiceIMM, accel.FPGA)
	red, err = d.TCO.TCOReduction(accel.FPGA, s)
	if err != nil {
		t.Fatal(err)
	}
	if red < 2.5 {
		t.Fatalf("FPGA IMM TCO reduction %.1f, want >= 2.5", red)
	}
}

func TestTable8HomogeneousChoices(t *testing.T) {
	d := NewDesign()
	// With FPGA available: latency-optimal and perf/W-optimal DC is FPGA.
	c, err := d.ChooseHomogeneous(MinLatency, WithFPGA)
	if err != nil || c.Platform != accel.FPGA {
		t.Fatalf("min-latency choice: %+v, %v", c, err)
	}
	c, err = d.ChooseHomogeneous(MaxPerfPerWatt, WithFPGA)
	if err != nil || c.Platform != accel.FPGA {
		t.Fatalf("perf/W choice: %+v, %v", c, err)
	}
	// Without FPGA or GPU, the TCO choice degenerates to CMP (Phi fails
	// the latency constraint).
	c, err = d.ChooseHomogeneous(MinTCO, WithoutFPGAGPU)
	if err != nil || c.Platform != accel.CMP {
		t.Fatalf("no-FPGA/GPU TCO choice: %+v, %v", c, err)
	}
	// Without FPGA, GPU is the latency choice.
	c, err = d.ChooseHomogeneous(MinLatency, WithoutFPGA)
	if err != nil || c.Platform != accel.GPU {
		t.Fatalf("no-FPGA latency choice: %+v, %v", c, err)
	}
	// Without FPGA or GPU, CMP also wins latency: Phi's one fast service
	// (ASR-DNN) must not outweigh being slower everywhere else.
	c, err = d.ChooseHomogeneous(MinLatency, WithoutFPGAGPU)
	if err != nil || c.Platform != accel.CMP {
		t.Fatalf("no-FPGA/GPU latency choice: %+v, %v", c, err)
	}
	// TCO choice with all candidates is the GPU (paper Table 8 row 2).
	c, err = d.ChooseHomogeneous(MinTCO, WithFPGA)
	if err != nil || c.Platform != accel.GPU {
		t.Fatalf("TCO choice: %+v, %v", c, err)
	}
	if MinLatency.String() == "" || MinTCO.String() == "" || MaxPerfPerWatt.String() == "" {
		t.Fatal("objective names")
	}
}

func TestTable9Heterogeneous(t *testing.T) {
	d := NewDesign()
	// With all candidates, the latency-optimal partitioned DC uses GPU
	// for ASR(DNN) and FPGA for the other services (Table 9 row 1), with
	// a substantial gain for ASR(DNN) (paper: 3.6x over homogeneous FPGA).
	choices, err := d.ChooseHeterogeneous(MinLatency, WithFPGA)
	if err != nil {
		t.Fatal(err)
	}
	if choices[accel.ServiceASRDNN].Platform != accel.GPU {
		t.Fatalf("ASR(DNN) choice: %+v", choices[accel.ServiceASRDNN])
	}
	if choices[accel.ServiceASRDNN].Score < 2 {
		t.Fatalf("ASR(DNN) improvement %.2f, want >= 2", choices[accel.ServiceASRDNN].Score)
	}
	for _, svc := range []accel.Service{accel.ServiceASRGMM, accel.ServiceQA, accel.ServiceIMM} {
		if choices[svc].Platform != accel.FPGA {
			t.Errorf("%s latency choice: %+v, want FPGA", svc, choices[svc])
		}
	}
	// TCO objective with hardware-only costs: FPGA wins QA and IMM
	// (Table 9 row 2: 20% and 19% improvements).
	choices, err = d.ChooseHeterogeneous(MinTCO, WithFPGA)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []accel.Service{accel.ServiceQA, accel.ServiceIMM} {
		if choices[svc].Platform != accel.FPGA {
			t.Errorf("%s TCO choice: %+v, want FPGA", svc, choices[svc])
		}
		if choices[svc].Score < 1.05 {
			t.Errorf("%s TCO improvement %.2f, want >= 1.05", svc, choices[svc].Score)
		}
	}
}

func TestFig20HeadlineAverages(t *testing.T) {
	d := NewDesign()
	gpuLat, gpuTCO, err := d.AverageClassMetrics(accel.GPU)
	if err != nil {
		t.Fatal(err)
	}
	fpgaLat, fpgaTCO, err := d.AverageClassMetrics(accel.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: GPU ~10x latency reduction, FPGA ~16x; the shape target is
	// FPGA > GPU with both well into double digits of the baseline.
	if !(fpgaLat > gpuLat) {
		t.Fatalf("FPGA latency reduction %.1f must exceed GPU %.1f", fpgaLat, gpuLat)
	}
	if gpuLat < 5 || gpuLat > 25 || fpgaLat < 8 || fpgaLat > 35 {
		t.Fatalf("latency reductions out of band: GPU %.1f FPGA %.1f", gpuLat, fpgaLat)
	}
	// Both accelerated DCs reduce TCO (paper: 2.6x / 1.4x).
	if gpuTCO <= 1 || fpgaTCO <= 1 {
		t.Fatalf("TCO reductions: GPU %.2f FPGA %.2f", gpuTCO, fpgaTCO)
	}
	// With the engineering cost §5.2.3 discusses, the GPU DC wins TCO on
	// average — the paper's headline ordering.
	dEng := d
	dEng.TCO.FPGAEngineeringUSD = 3000
	_, fpgaTCOEng, err := dEng.AverageClassMetrics(accel.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	if !(gpuTCO > fpgaTCOEng) {
		t.Fatalf("with engineering cost, GPU TCO reduction %.2f must beat FPGA %.2f", gpuTCO, fpgaTCOEng)
	}
}

func TestEvaluateClassMetrics(t *testing.T) {
	d := NewDesign()
	m, err := d.EvaluateClass(classVIQ, accel.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != classVIQ || m.Platform != accel.FPGA {
		t.Fatal("metadata")
	}
	if m.Latency <= 0 || m.LatencyReduction <= 1 || m.PerfPerWatt <= 1 {
		t.Fatalf("metrics: %+v", m)
	}
	// VIQ must take at least as long as VQ, which takes longer than VC.
	vc := d.ClassLatency(classVC, accel.CMP)
	vq := d.ClassLatency(ClassVQ, accel.CMP)
	viq := d.ClassLatency(classVIQ, accel.CMP)
	if !(vc < vq && vq < viq) {
		t.Fatalf("class ordering: VC=%v VQ=%v VIQ=%v", vc, vq, viq)
	}
}

func TestScalabilityGap(t *testing.T) {
	// Paper's numbers: 15s Sirius vs 91ms web search -> ~165x.
	gap := ScalabilityGap(15*time.Second, 91*time.Millisecond)
	if math.Abs(gap-164.8) > 0.5 {
		t.Fatalf("gap = %v", gap)
	}
	// Fig 21: acceleration shrinks the gap proportionally.
	if got := BridgedGap(165, 10); math.Abs(got-16.5) > 1e-9 {
		t.Fatalf("bridged = %v", got)
	}
	if BridgedGap(165, 0) != 165 {
		t.Fatal("non-positive reduction must leave the gap")
	}
}

func TestResponseTimePercentiles(t *testing.T) {
	q := NewMM1(100 * time.Millisecond) // mu = 10
	lambda := 5.0                       // mu - lambda = 5
	p50, err := q.ResponseTimePercentile(lambda, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Median of Exp(5) = ln2/5 s.
	if math.Abs(p50.Seconds()-math.Ln2/5) > 1e-9 {
		t.Fatalf("p50 = %v", p50)
	}
	p99, _ := q.ResponseTimePercentile(lambda, 0.99)
	mean, _ := q.ResponseTime(lambda)
	if !(p50 < mean && mean < p99) {
		t.Fatalf("ordering: p50=%v mean=%v p99=%v", p50, mean, p99)
	}
	// The exponential tail: p99 ~ 4.6x the mean.
	if ratio := p99.Seconds() / mean.Seconds(); math.Abs(ratio-math.Log(100)) > 1e-9 {
		t.Fatalf("p99/mean = %v, want ln(100)", ratio)
	}
	if _, err := q.ResponseTimePercentile(lambda, 1.5); err == nil {
		t.Fatal("bad percentile must error")
	}
	if _, err := q.ResponseTimePercentile(20, 0.5); err == nil {
		t.Fatal("unstable queue must error")
	}
}

func TestSimulatedTailMatchesMM1Percentile(t *testing.T) {
	// The trace simulator's p99 must agree with the closed form within
	// ~15% on a long exponential trace.
	mean := 10 * time.Millisecond
	rho := 0.6
	mu := 1 / mean.Seconds()
	lambda := rho * mu
	n := 80000
	arr := poissonTrace(lambda, n, 5)
	svc := exponentialServices(mean, n, 6)
	res, err := queue(arr, svc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewMM1(mean).ResponseTimePercentile(lambda, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(res.Response.P99.Seconds()-want.Seconds()) / want.Seconds()
	if relErr > 0.15 {
		t.Fatalf("p99 %v vs closed form %v (rel err %.3f)", res.Response.P99, want, relErr)
	}
}
