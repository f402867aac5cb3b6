package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sirius/internal/accel"
	"sirius/internal/dcsim"
	"sirius/internal/kb"
	"sirius/internal/loadgen"
	"sirius/internal/sirius"
	"sirius/internal/suite"
)

// measureServiceTimes derives per-service baseline decompositions from
// the live pipeline runs, replacing accel.DefaultServiceTimes with
// numbers from this machine. The ASR flavors share one measurement set
// (the pipeline runs GMM by default); ASR(DNN) reuses the measured
// remainder with the DNN kernel share.
func (h *harness) measureServiceTimes() (map[accel.Service]accel.ServiceTimes, error) {
	if h.measuredTimes != nil {
		return h.measuredTimes, nil
	}
	if err := h.runInputSet(); err != nil {
		return nil, err
	}
	var n int
	var score, search, feat time.Duration
	var stem, reg, crf, qaWall time.Duration
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
			qaWall += m.Latency.QA
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
		return nil, fmt.Errorf("input set produced no measurements")
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
			// Retrieval and the untimed rest of the service's wall time.
			Remainder: div(qaWall-stem-reg-crf, qn),
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
			return nil, fmt.Errorf("measured %s: %w", svc, err)
		}
	}
	h.measuredTimes = times
	return times, nil
}

// designFor builds a dcsim.Design. measured selects live service times
// from this machine; otherwise the paper-scale defaults are used.
func (h *harness) designFor(measured bool) (dcsim.Design, error) {
	d := dcsim.NewDesign()
	if measured {
		times, err := h.measureServiceTimes()
		if err != nil {
			return d, err
		}
		d.Times = times
	}
	return d, nil
}

// fig14 renders per-service latency across platforms.
func fig14(e env) (string, error) {
	d := e.d
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
	return b.String(), nil
}

// fig15 renders performance per Watt normalized to CMP.
func fig15(e env) (string, error) {
	d := e.d
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
	return b.String(), nil
}

// fig16 renders saturation throughput improvement over the CMP
// server.
func fig16(e env) (string, error) {
	d := e.d
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
	return b.String(), nil
}

// fig17Loads are the load levels swept in Fig 17.
var fig17Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// fig17 renders queueing-aware throughput improvement across loads, then
// the p99 response time at load 0.5 for each platform — the SLO view the
// paper's mean-based Fig 17 implies. M/M/1 sojourn times are exponential,
// so p99 = ln(100) x the mean residual.
func fig17(e env) (string, error) {
	d := e.d
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17 — Throughput improvement vs load (M/M/1; lower load => larger gain)\n")
	for _, svc := range accel.Services {
		base := d.ServiceLatency(svc, accel.CMP)
		for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
			fmt.Fprintf(&b, "  %-9s %-5s:", svc, p)
			for _, rho := range fig17Loads {
				imp, err := dcsim.ThroughputImprovement(base, d.ServiceLatency(svc, p), rho)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "  rho=%.1f %7.1fx", rho, imp)
			}
			b.WriteByte('\n')
		}
	}
	const rho = 0.5
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

// fig18 renders datacenter TCO normalized to the CMP datacenter.
func fig18(e env) (string, error) {
	d := e.d
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

// fig19 renders the latency-vs-TCO trade-off scatter.
func fig19(e env) (string, error) {
	d := e.d
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

// tab8 renders homogeneous DC choices.
func tab8(e env) (string, error) {
	d := e.d
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
	return b.String(), nil
}

// tab9 renders heterogeneous (partitioned) DC choices with their
// improvements over the homogeneous design.
func tab9(e env) (string, error) {
	d := e.d
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

// fig20 renders query-level DC metrics for the GPU and FPGA
// datacenters, with and without the FPGA engineering-cost adjustment.
func fig20(e env) (string, error) {
	d := e.d
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

// paperGap is the scalability gap the paper measured (Fig 7a).
const paperGap = 165

// fig21 renders the bridged scalability gap from the paper's gap, then
// from the gap Fig 7a measures on this machine.
func fig21(e env) (string, error) {
	paper, err := formatFig21(e.d, paperGap)
	if err != nil {
		return "", err
	}
	r, err := e.h.runFig7a()
	if err != nil {
		return "", err
	}
	live, err := formatFig21(e.d, r.Gap)
	return paper + "(live-measured gap on this machine)\n" + live, err
}

// formatFig21 renders the gap left after each accelerated datacenter
// divides gap by its mean latency reduction.
func formatFig21(d dcsim.Design, gap float64) (string, error) {
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

// ablEngineering renders the FPGA engineering cost, swept in $250 steps
// up to $20k per server, at which the GPU datacenter overtakes the FPGA
// one on mean TCO.
func ablEngineering(e env) (string, error) {
	eng, err := e.d.EngineeringCrossover(250, 20000)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Ablation — FPGA engineering cost: GPU overtakes FPGA on mean TCO at ~$%.0f/server\n", eng), nil
}

// ablAmdahl renders QA's FPGA speedup as its unaccelerated remainder
// grows: why QA gains are limited.
func ablAmdahl(e env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — Amdahl remainder sweep (QA on FPGA):\n")
	for _, p := range e.d.AmdahlSweep(accel.ServiceQA, accel.FPGA, []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
		fmt.Fprintf(&b, "  remainder %4.0f%% -> service speedup %6.1fx\n", 100*p.RemainderFrac, p.Speedup)
	}
	return b.String(), nil
}

// ablMode renders how many Table 8 choices agree between the calibrated
// and analytic speedup models, cell by cell.
func ablMode(e env) (string, error) {
	agree, total, detail := e.d.ModeAgreement()
	return fmt.Sprintf("Ablation — calibrated vs analytic speedup model: %d/%d Table 8 cells agree\n%s", agree, total, detail), nil
}

// queueValidation pushes real QA executions through the trace-driven
// queue simulator at the given load and compares the measured mean
// response time against the M/M/1 prediction built from the measured
// mean service time. Real service times are not exponential, so the
// simulated response should land between the bare service time and the
// M/M/1 prediction (which Fig 17 uses as its model).
type queueValidation struct {
	Load          float64
	MeanService   time.Duration
	SimResponse   time.Duration
	MM1Prediction time.Duration
}

// runQueueValidation measures n QA queries and simulates a Poisson load
// at utilization rho.
func (h *harness) runQueueValidation(rho float64, n int) (queueValidation, error) {
	vq := kb.VoiceQueries
	services := dcsim.MeasuredServices(func(i int) {
		h.pipeline.Process(context.Background(), sirius.Request{Text: vq[i%len(vq)].Text})
	}, n)
	var sum time.Duration
	for _, s := range services {
		sum += s
	}
	mean := sum / time.Duration(n)
	mu := 1 / mean.Seconds()
	lambda := rho * mu
	arrivals := loadgen.Schedule(loadgen.Spec{Rate: lambda, Requests: n, Seed: 17})
	res, err := dcsim.SimulateCluster(arrivals, services, nil, dcsim.ClusterSpec{Servers: 1})
	if err != nil {
		return queueValidation{}, err
	}
	pred, err := dcsim.NewMM1(mean).ResponseTime(lambda)
	if err != nil {
		return queueValidation{}, err
	}
	return queueValidation{Load: rho, MeanService: mean, SimResponse: res.Response.Mean, MM1Prediction: pred}, nil
}

func (v queueValidation) String() string {
	return fmt.Sprintf(
		"Live queue validation — real QA service times through a Poisson trace (rho=%.1f)\n"+
			"  mean service %v, simulated mean response %v, M/M/1 prediction %v\n",
		v.Load, v.MeanService, v.SimResponse, v.MM1Prediction)
}

// The live queue validation's load and QA executions.
const (
	queueLoad = 0.5
	queueN    = 400
)

// queue runs the validation at the load and size the reproduction uses.
func queue(e env) (string, error) {
	v, err := e.h.runQueueValidation(queueLoad, queueN)
	return v.String(), err
}
