package dcsim

import (
	"fmt"
	"time"

	"sirius/internal/accel"
)

// Objective is a datacenter design goal (the rows of Tables 8 and 9).
type Objective int

const (
	// MinLatency minimizes mean query latency.
	MinLatency Objective = iota
	// MinTCO minimizes total cost of ownership subject to the latency
	// constraint (no worse than the threaded CMP baseline).
	MinTCO
	// MaxPerfPerWatt maximizes energy efficiency under the same
	// latency constraint.
	MaxPerfPerWatt
)

func (o Objective) String() string {
	switch o {
	case MinLatency:
		return "min-latency"
	case MinTCO:
		return "min-TCO (w/ latency constraint)"
	default:
		return "max-perf/W (w/ latency constraint)"
	}
}

// Candidate sets (the column groups of Tables 8 and 9).
var (
	WithFPGA       = []accel.Platform{accel.CMP, accel.GPU, accel.Phi, accel.FPGA}
	WithoutFPGA    = []accel.Platform{accel.CMP, accel.GPU, accel.Phi}
	WithoutFPGAGPU = []accel.Platform{accel.CMP, accel.Phi}
)

// Design evaluates platform choices over a set of service
// decompositions.
type Design struct {
	Times map[accel.Service]accel.ServiceTimes
	TCO   TCOParams
	Mode  accel.Mode
}

// NewDesign builds a Design with the default service times and TCO.
func NewDesign() Design {
	return Design{Times: accel.DefaultServiceTimes(), TCO: defaultTCOParams(), Mode: accel.Calibrated}
}

// ServiceLatency returns the service latency on a platform.
func (d Design) ServiceLatency(svc accel.Service, p accel.Platform) time.Duration {
	return accel.Accelerate(d.Times[svc], p, d.Mode)
}

// speedupOverCMP is the service-level throughput gain over the CMP
// server (the Fig 16 / Fig 18 normalization).
func (d Design) speedupOverCMP(svc accel.Service, p accel.Platform) float64 {
	return float64(d.ServiceLatency(svc, accel.CMP)) / float64(d.ServiceLatency(svc, p))
}

// meetsLatencyConstraint reports whether p's latency on svc is no worse
// than the CMP (sub-query) baseline, with a small tolerance.
func (d Design) meetsLatencyConstraint(svc accel.Service, p accel.Platform) bool {
	return float64(d.ServiceLatency(svc, p)) <= 1.001*float64(d.ServiceLatency(svc, accel.CMP))
}

// score returns p's figure of merit for the objective on one service
// (higher is better), and whether p is feasible.
func (d Design) score(svc accel.Service, p accel.Platform, obj Objective) (float64, bool) {
	switch obj {
	case MinLatency:
		return 1 / d.ServiceLatency(svc, p).Seconds(), true
	case MinTCO:
		if !d.meetsLatencyConstraint(svc, p) {
			return 0, false
		}
		red, err := d.TCO.TCOReduction(p, d.speedupOverCMP(svc, p))
		if err != nil {
			return 0, false
		}
		return red, true
	default: // MaxPerfPerWatt
		if !d.meetsLatencyConstraint(svc, p) {
			return 0, false
		}
		return accel.PerfPerWatt(d.Times[svc], p, d.Mode), true
	}
}

// Choice is one selected platform with its objective score.
type Choice struct {
	Platform accel.Platform
	Score    float64
}

// ChooseHomogeneous picks the single platform (all servers identical,
// §5.2.3) that maximizes the average objective score across all four
// services, among candidates that are feasible for every service.
func (d Design) ChooseHomogeneous(obj Objective, candidates []accel.Platform) (Choice, error) {
	best := Choice{}
	found := false
	for _, p := range candidates {
		total := 0.0
		feasible := true
		for _, svc := range accel.Services {
			s, ok := d.score(svc, p, obj)
			if !ok {
				feasible = false
				break
			}
			total += s
		}
		if !feasible {
			continue
		}
		avg := total / float64(len(accel.Services))
		if obj == MinLatency {
			// Averaging rates (1/latency) would let a platform win on the
			// strength of one very fast service; what a homogeneous DC
			// cares about is total time across the service mix.
			var sum time.Duration
			for _, svc := range accel.Services {
				sum += d.ServiceLatency(svc, p)
			}
			avg = 1 / sum.Seconds()
		}
		if !found || avg > best.Score {
			best = Choice{Platform: p, Score: avg}
			found = true
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("dcsim: no feasible homogeneous platform for %v", obj)
	}
	return best, nil
}

// ChooseHeterogeneous picks the best platform per service (the
// partitioned datacenter of §5.2.4) and reports, per service, the
// improvement over the homogeneous choice for the same objective.
func (d Design) ChooseHeterogeneous(obj Objective, candidates []accel.Platform) (map[accel.Service]Choice, error) {
	homog, err := d.ChooseHomogeneous(obj, candidates)
	if err != nil {
		return nil, err
	}
	out := map[accel.Service]Choice{}
	for _, svc := range accel.Services {
		var best Choice
		found := false
		for _, p := range candidates {
			s, ok := d.score(svc, p, obj)
			if !ok {
				continue
			}
			if !found || s > best.Score {
				best = Choice{Platform: p, Score: s}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("dcsim: no feasible platform for %s under %v", svc, obj)
		}
		// Normalize score to the homogeneous platform's score on the same
		// service, giving Table 9's "improvement over homogeneous" number.
		hScore, _ := d.score(svc, homog.Platform, obj)
		if hScore > 0 {
			best.Score = best.Score / hScore
		}
		out[svc] = best
	}
	return out, nil
}

// --- query-level datacenter comparison (Fig 20) -------------------------

// QueryClass is the paper's query taxonomy at the DC level.
type QueryClass string

// The three classes and the services each exercises (Table 1).
const (
	classVC  QueryClass = "VC"
	ClassVQ  QueryClass = "VQ"
	classVIQ QueryClass = "VIQ"
)

// QueryClasses lists them in taxonomy order.
var QueryClasses = []QueryClass{classVC, ClassVQ, classVIQ}

// servicesOf maps a query class to its service chain (ASR uses the GMM
// flavor, the paper's default configuration).
func servicesOf(c QueryClass) []accel.Service {
	switch c {
	case classVC:
		return []accel.Service{accel.ServiceASRGMM}
	case ClassVQ:
		return []accel.Service{accel.ServiceASRGMM, accel.ServiceQA}
	default:
		return []accel.Service{accel.ServiceASRGMM, accel.ServiceQA, accel.ServiceIMM}
	}
}

// ClassLatency returns the end-to-end latency of a query class on p
// (services run back to back, as in the Sirius pipeline).
func (d Design) ClassLatency(c QueryClass, p accel.Platform) time.Duration {
	var sum time.Duration
	for _, svc := range servicesOf(c) {
		sum += d.ServiceLatency(svc, p)
	}
	return sum
}

// ClassMetrics is one Fig 20 row.
type ClassMetrics struct {
	Class            QueryClass
	Platform         accel.Platform
	Latency          time.Duration
	LatencyReduction float64 // vs the single-core baseline
	PerfPerWatt      float64 // vs CMP
	TCOReduction     float64 // vs the CMP datacenter
}

// baselineClassLatency is the single-core latency of the class.
func (d Design) baselineClassLatency(c QueryClass) time.Duration {
	var sum time.Duration
	for _, svc := range servicesOf(c) {
		sum += d.Times[svc].Total()
	}
	return sum
}

// EvaluateClass computes Fig 20's metrics for one class and platform.
func (d Design) EvaluateClass(c QueryClass, p accel.Platform) (ClassMetrics, error) {
	lat := d.ClassLatency(c, p)
	cmpLat := d.ClassLatency(c, accel.CMP)
	speedupOverCMP := float64(cmpLat) / float64(lat)
	tcoRed, err := d.TCO.TCOReduction(p, speedupOverCMP)
	if err != nil {
		return ClassMetrics{}, err
	}
	ppw := (cmpLat.Seconds() * accel.Specs[accel.CMP].TDPWatts) / (lat.Seconds() * accel.Specs[p].TDPWatts)
	return ClassMetrics{
		Class:            c,
		Platform:         p,
		Latency:          lat,
		LatencyReduction: float64(d.baselineClassLatency(c)) / float64(lat),
		PerfPerWatt:      ppw,
		TCOReduction:     tcoRed,
	}, nil
}

// AverageClassMetrics averages a platform's Fig 20 metrics over the
// three query classes — the paper's "10x latency / 2.6x TCO (GPU)" and
// "16x latency / 1.4x TCO (FPGA)" headline numbers.
func (d Design) AverageClassMetrics(p accel.Platform) (latencyReduction, tcoReduction float64, err error) {
	for _, c := range QueryClasses {
		m, err := d.EvaluateClass(c, p)
		if err != nil {
			return 0, 0, err
		}
		latencyReduction += m.LatencyReduction
		tcoReduction += m.TCOReduction
	}
	n := float64(len(QueryClasses))
	return latencyReduction / n, tcoReduction / n, nil
}

// --- scalability gap (Figs 1, 7a, 21) ------------------------------------

// ScalabilityGap returns how many times a datacenter must grow to serve
// IPA queries at web-search volume: the ratio of per-query compute.
func ScalabilityGap(siriusLatency, searchLatency time.Duration) float64 {
	return siriusLatency.Seconds() / searchLatency.Seconds()
}

// BridgedGap is Fig 21: the residual scaling factor after accelerating
// Sirius queries by latencyReduction.
func BridgedGap(gap, latencyReduction float64) float64 {
	if latencyReduction <= 0 {
		return gap
	}
	return gap / latencyReduction
}
