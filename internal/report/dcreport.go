package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sirius/internal/accel"
	"sirius/internal/dcsim"
	"sirius/internal/kb"
	"sirius/internal/sirius"
	"sirius/internal/suite"
)

// MeasureServiceTimes derives per-service baseline decompositions from
// the live pipeline runs, replacing accel.DefaultServiceTimes with
// numbers from this machine. The ASR flavors share one measurement set
// (the pipeline runs GMM by default); ASR(DNN) reuses the measured
// remainder with the DNN kernel share.
func (h *Harness) MeasureServiceTimes() (map[accel.Service]accel.ServiceTimes, error) {
	if h.MeasuredTimes != nil {
		return h.MeasuredTimes, nil
	}
	if err := h.RunInputSet(); err != nil {
		return nil, err
	}
	var n int
	var score, search, feat time.Duration
	var stem, reg, crf, retr time.Duration
	var qn int
	var fe, fd, ann time.Duration
	var in int
	for _, m := range h.perQuery {
		if m.Latency.ASR > 0 {
			score += m.Latency.ASRScoring
			search += m.Latency.ASRSearch
			feat += m.Latency.ASRFeature
			n++
		}
		if m.Latency.QA > 0 {
			stem += m.Latency.QAStemming
			reg += m.Latency.QARegex
			crf += m.Latency.QACRF
			retr += m.Latency.QARetrieval
			qn++
		}
		if m.Latency.IMM > 0 {
			fe += m.Latency.IMMFE
			fd += m.Latency.IMMFD
			ann += m.Latency.IMMSearch
			in++
		}
	}
	if n == 0 || qn == 0 || in == 0 {
		return nil, fmt.Errorf("report: input set produced no measurements")
	}
	div := func(d time.Duration, k int) time.Duration { return d / time.Duration(k) }
	hmmAccel := map[accel.Platform]float64{accel.GPU: 3.7, accel.Phi: 3.7, accel.FPGA: 3.7}
	times := map[accel.Service]accel.ServiceTimes{
		accel.ServiceASRGMM: {
			Components:        map[suite.Kernel]time.Duration{suite.KernelGMM: div(score, n)},
			Remainder:         div(search+feat, n),
			RemainderSpeedups: hmmAccel,
		},
		accel.ServiceASRDNN: {
			Components:        map[suite.Kernel]time.Duration{suite.KernelDNN: div(score, n)},
			Remainder:         div(search+feat, n),
			RemainderSpeedups: map[accel.Platform]float64{accel.CMP: 6.0, accel.GPU: 54.7, accel.Phi: 11.2, accel.FPGA: 3.7},
		},
		accel.ServiceQA: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelStemmer: div(stem, qn),
				suite.KernelRegex:   div(reg, qn),
				suite.KernelCRF:     div(crf, qn),
			},
			Remainder: div(retr, qn),
		},
		accel.ServiceIMM: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelFE: div(fe, in),
				suite.KernelFD: div(fd, in),
			},
			Remainder: div(ann, in),
		},
	}
	for svc, st := range times {
		if err := accel.Validate(st); err != nil {
			return nil, fmt.Errorf("report: measured %s: %w", svc, err)
		}
	}
	h.MeasuredTimes = times
	return times, nil
}

// DesignFor builds a dcsim.Design. measured selects live service times
// from this machine; otherwise the paper-scale defaults are used.
func (h *Harness) DesignFor(measured bool) (dcsim.Design, error) {
	d := dcsim.NewDesign()
	if measured {
		times, err := h.MeasureServiceTimes()
		if err != nil {
			return d, err
		}
		d.Times = times
	}
	return d, nil
}

// FormatFig14 renders per-service latency across platforms.
func FormatFig14(d dcsim.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — Service latency per platform (baseline = 1 core)\n")
	fmt.Fprintf(&b, "  %-9s %12s %12s %12s %12s %12s\n", "service", "baseline", "CMP", "GPU", "Phi", "FPGA")
	for _, svc := range accel.Services {
		fmt.Fprintf(&b, "  %-9s %12v", svc, d.Times[svc].Total())
		for _, p := range accel.Platforms {
			fmt.Fprintf(&b, " %12v", d.ServiceLatency(svc, p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig15 renders performance per Watt normalized to CMP.
func FormatFig15(d dcsim.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15 — Performance per Watt (normalized to multicore CMP)\n")
	fmt.Fprintf(&b, "  %-9s %8s %8s %8s %8s\n", "service", "CMP", "GPU", "Phi", "FPGA")
	for _, svc := range accel.Services {
		fmt.Fprintf(&b, "  %-9s", svc)
		for _, p := range accel.Platforms {
			fmt.Fprintf(&b, " %7.2fx", accel.PerfPerWatt(d.Times[svc], p, d.Mode))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig16 renders saturation throughput improvement over the CMP
// server.
func FormatFig16(d dcsim.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16 — Throughput improvement at 100%% load (vs CMP server)\n")
	fmt.Fprintf(&b, "  %-9s %8s %8s %8s %8s\n", "service", "CMP", "GPU", "Phi", "FPGA")
	for _, svc := range accel.Services {
		base := d.ServiceLatency(svc, accel.CMP)
		fmt.Fprintf(&b, "  %-9s", svc)
		for _, p := range accel.Platforms {
			fmt.Fprintf(&b, " %7.1fx", dcsim.SaturationThroughputImprovement(base, d.ServiceLatency(svc, p)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig17Loads are the load levels swept in Fig 17.
var Fig17Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// FormatFig17 renders queueing-aware throughput improvement across loads.
func FormatFig17(d dcsim.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17 — Throughput improvement vs load (M/M/1; lower load => larger gain)\n")
	for _, svc := range accel.Services {
		base := d.ServiceLatency(svc, accel.CMP)
		for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
			fmt.Fprintf(&b, "  %-9s %-5s:", svc, p)
			for _, rho := range Fig17Loads {
				imp, err := dcsim.ThroughputImprovement(base, d.ServiceLatency(svc, p), rho)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "  rho=%.1f %7.1fx", rho, imp)
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// FormatFig17Tail renders the p99 response time at a fixed load for each
// platform — the SLO view the paper's mean-based Fig 17 implies. M/M/1
// sojourn times are exponential, so p99 = ln(100) x the mean residual.
func FormatFig17Tail(d dcsim.Design, rho float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17 appendix — p99 response time at rho=%.1f (M/M/1 tail)\n", rho)
	fmt.Fprintf(&b, "  %-9s %14s %14s %14s %14s\n", "service", "CMP", "GPU", "Phi", "FPGA")
	for _, svc := range accel.Services {
		fmt.Fprintf(&b, "  %-9s", svc)
		for _, p := range accel.Platforms {
			q := dcsim.NewMM1(d.ServiceLatency(svc, p))
			p99, err := q.ResponseTimePercentile(rho*q.ServiceRate, 0.99)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %14v", p99.Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// FormatFig18 renders datacenter TCO normalized to the CMP datacenter.
func FormatFig18(d dcsim.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18 — Relative DC TCO (CMP datacenter = 1.0; lower is better)\n")
	fmt.Fprintf(&b, "  %-9s %8s %8s %8s %8s\n", "service", "CMP", "GPU", "Phi", "FPGA")
	for _, svc := range accel.Services {
		fmt.Fprintf(&b, "  %-9s", svc)
		for _, p := range accel.Platforms {
			sp := float64(d.ServiceLatency(svc, accel.CMP)) / float64(d.ServiceLatency(svc, p))
			rel, err := d.TCO.RelativeDCTCO(p, sp)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %8.2f", rel)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// FormatFig19 renders the latency-vs-TCO trade-off scatter.
func FormatFig19(d dcsim.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 19 — Trade-off: latency improvement (vs 1 core) vs TCO improvement (vs CMP DC)\n")
	for _, svc := range accel.Services {
		base := d.Times[svc].Total()
		for _, p := range accel.Platforms {
			lat := d.ServiceLatency(svc, p)
			latImp := float64(base) / float64(lat)
			sp := float64(d.ServiceLatency(svc, accel.CMP)) / float64(lat)
			tcoRed, err := d.TCO.TCOReduction(p, sp)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  %-9s %-5s latency %6.1fx  TCO %5.2fx\n", svc, p, latImp, tcoRed)
		}
	}
	return b.String(), nil
}

// FormatTable8 renders homogeneous DC choices.
func FormatTable8(d dcsim.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8 — Homogeneous DC design choices\n")
	sets := []struct {
		name string
		set  []accel.Platform
	}{
		{"with FPGA", dcsim.WithFPGA},
		{"without FPGA", dcsim.WithoutFPGA},
		{"without FPGA+GPU", dcsim.WithoutFPGAGPU},
	}
	for _, obj := range []dcsim.Objective{dcsim.MinLatency, dcsim.MinTCO, dcsim.MaxPerfPerWatt} {
		fmt.Fprintf(&b, "  %-34s:", obj)
		for _, s := range sets {
			c, err := d.ChooseHomogeneous(obj, s.set)
			if err != nil {
				fmt.Fprintf(&b, "  %s=<none>", s.name)
				continue
			}
			fmt.Fprintf(&b, "  %s=%s", s.name, c.Platform)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable9 renders heterogeneous (partitioned) DC choices with their
// improvements over the homogeneous design.
func FormatTable9(d dcsim.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 9 — Heterogeneous DC choices (improvement vs homogeneous in parens)\n")
	for _, obj := range []dcsim.Objective{dcsim.MinLatency, dcsim.MinTCO, dcsim.MaxPerfPerWatt} {
		choices, err := d.ChooseHeterogeneous(obj, dcsim.WithFPGA)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-34s:", obj)
		for _, svc := range accel.Services {
			c := choices[svc]
			fmt.Fprintf(&b, "  %s=%s(%.2fx)", svc, c.Platform, c.Score)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// FormatFig20 renders query-level DC metrics for the GPU and FPGA
// datacenters, with and without the FPGA engineering-cost adjustment.
func FormatFig20(d dcsim.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 20 — Query-level DC comparison (GPU vs FPGA; paper: ~10x/~16x latency, 2.6x/1.4x TCO)\n")
	for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
		for _, c := range dcsim.QueryClasses {
			m, err := d.EvaluateClass(c, p)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  %-5s %-4s latency %10v  reduction %6.1fx  perf/W %6.1fx  TCO %5.2fx\n",
				p, c, m.Latency, m.LatencyReduction, m.PerfPerWatt, m.TCOReduction)
		}
		lat, tco, err := d.AverageClassMetrics(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-5s mean latency reduction %6.1fx  mean TCO reduction %5.2fx\n", p, lat, tco)
	}
	dEng := d
	dEng.TCO.FPGAEngineeringUSD = 3000
	_, tcoEng, err := dEng.AverageClassMetrics(accel.FPGA)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  (FPGA with $3000/server engineering amortization: TCO %5.2fx — the GPU wins, as in §5.2.3)\n", tcoEng)
	return b.String(), nil
}

// FormatFig21 renders the bridged scalability gap.
func FormatFig21(d dcsim.Design, gap float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 21 — Bridging the scalability gap (starting gap %.0fx)\n", gap)
	for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
		lat, _, err := d.AverageClassMetrics(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-5s mean latency reduction %5.1fx -> residual gap %5.1fx\n", p, lat, dcsim.BridgedGap(gap, lat))
	}
	return b.String(), nil
}

// FormatAblationEngineering renders the FPGA engineering cost, swept in
// $250 steps up to $20k per server, at which the GPU datacenter
// overtakes the FPGA one on mean TCO.
func FormatAblationEngineering(d dcsim.Design) (string, error) {
	eng, err := d.EngineeringCrossover(250, 20000)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Ablation — FPGA engineering cost: GPU overtakes FPGA on mean TCO at ~$%.0f/server\n", eng), nil
}

// FormatAblationAmdahl renders QA's FPGA speedup as its unaccelerated
// remainder grows: why QA gains are limited.
func FormatAblationAmdahl(d dcsim.Design) string {
	var b strings.Builder
	b.WriteString("Ablation — Amdahl remainder sweep (QA on FPGA):\n")
	for _, p := range d.AmdahlSweep(accel.ServiceQA, accel.FPGA, []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
		fmt.Fprintf(&b, "  remainder %4.0f%% -> service speedup %6.1fx\n", 100*p.RemainderFrac, p.Speedup)
	}
	return b.String()
}

// FormatAblationMode renders how many Table 8 choices agree between the
// calibrated and analytic speedup models, cell by cell.
func FormatAblationMode(d dcsim.Design) string {
	agree, total, detail := d.ModeAgreement()
	return fmt.Sprintf("Ablation — calibrated vs analytic speedup model: %d/%d Table 8 cells agree\n%s", agree, total, detail)
}

// LiveQueueValidation pushes real QA executions through the trace-driven
// queue simulator at the given load and compares the measured mean
// response time against the M/M/1 prediction built from the measured
// mean service time. Real service times are not exponential, so the
// simulated response should land between the bare service time and the
// M/M/1 prediction (which Fig 17 uses as its model).
type LiveQueueValidation struct {
	Load          float64
	MeanService   time.Duration
	SimResponse   time.Duration
	MM1Prediction time.Duration
}

// RunLiveQueueValidation measures n QA queries and simulates a Poisson
// load at utilization rho.
func (h *Harness) RunLiveQueueValidation(rho float64, n int) (LiveQueueValidation, error) {
	queries := make([]string, n)
	qs := kbVoiceQueryTexts()
	for i := range queries {
		queries[i] = qs[i%len(qs)]
	}
	services := dcsim.MeasuredServices(func(i int) {
		h.Pipeline.Process(context.Background(), sirius.Request{Text: queries[i]})
	}, n)
	var sum time.Duration
	for _, s := range services {
		sum += s
	}
	mean := sum / time.Duration(n)
	mu := 1 / mean.Seconds()
	lambda := rho * mu
	arrivals := dcsim.PoissonArrivals(lambda, n, 17)
	res, err := dcsim.SimulateQueue(arrivals, services)
	if err != nil {
		return LiveQueueValidation{}, err
	}
	pred, err := dcsim.NewMM1(mean).ResponseTime(lambda)
	if err != nil {
		return LiveQueueValidation{}, err
	}
	return LiveQueueValidation{Load: rho, MeanService: mean, SimResponse: res.MeanResponse, MM1Prediction: pred}, nil
}

func (v LiveQueueValidation) String() string {
	return fmt.Sprintf(
		"Live queue validation — real QA service times through a Poisson trace (rho=%.1f)\n"+
			"  mean service %v, simulated mean response %v, M/M/1 prediction %v\n",
		v.Load, v.MeanService, v.SimResponse, v.MM1Prediction)
}

// kbVoiceQueryTexts returns the VQ query texts.
func kbVoiceQueryTexts() []string {
	out := make([]string, 0, len(kb.VoiceQueries))
	for _, q := range kb.VoiceQueries {
		out = append(out, q.Text)
	}
	return out
}
