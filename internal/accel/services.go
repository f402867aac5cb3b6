package accel

import (
	"fmt"
	"time"

	"sirius/internal/suite"
)

// Service names the four accelerated Sirius services of Figs 14-18.
type Service string

// The services studied in §5 (ASR appears in both acoustic-model
// flavors).
const (
	ServiceASRGMM Service = "ASR(GMM)"
	ServiceASRDNN Service = "ASR(DNN)"
	ServiceQA     Service = "QA"
	ServiceIMM    Service = "IMM"
)

// Services lists them in presentation order.
var Services = []Service{ServiceASRGMM, ServiceASRDNN, ServiceQA, ServiceIMM}

// ServiceTimes decomposes one service's baseline (single-core) latency
// into its accelerable kernels plus a host-side remainder (query parsing,
// search, I/O) that no accelerator offloads.
type ServiceTimes struct {
	Components map[suite.Kernel]time.Duration
	Remainder  time.Duration
	// RemainderSpeedups overrides how much the non-kernel remainder
	// accelerates per platform (default: 2x on CMP from query-level
	// parallelism, 1x elsewhere). The ASR services use it for the HMM
	// search: the paper's Table 5 DNN entries marked * cover HMM+DNN
	// combined on CMP/GPU/Phi, and other platforms get the cited 3.7x
	// HMM speedup [35].
	RemainderSpeedups map[Platform]float64
}

// remainderSpeedup resolves the remainder's speedup on p.
func (st ServiceTimes) remainderSpeedup(p Platform) float64 {
	if s, ok := st.RemainderSpeedups[p]; ok {
		return s
	}
	if p == CMP {
		return 2 // host-side work overlaps across cores (sub-query port)
	}
	return 1
}

// Total returns the end-to-end baseline latency.
func (st ServiceTimes) Total() time.Duration {
	sum := st.Remainder
	for _, d := range st.Components {
		sum += d
	}
	return sum
}

// Mode selects where speedups come from.
type Mode int

const (
	// Calibrated uses the paper's Table 5 numbers.
	Calibrated Mode = iota
	// Analytic uses the first-principles model.
	Analytic
)

// speedupFor returns the kernel speedup under the chosen mode.
func speedupFor(k suite.Kernel, p Platform, mode Mode) float64 {
	if mode == Analytic {
		return AnalyticSpeedup(k, p)
	}
	return MustSpeedup(k, p)
}

// Accelerate projects the service latency on a platform: each kernel
// shrinks by its speedup; the remainder shrinks by the service's
// remainder speedup (HMM search acceleration for ASR, sub-query
// parallelism for CMP, nothing otherwise).
func Accelerate(st ServiceTimes, p Platform, mode Mode) time.Duration {
	total := time.Duration(float64(st.Remainder) / st.remainderSpeedup(p))
	for k, d := range st.Components {
		s := speedupFor(k, p, mode)
		total += time.Duration(float64(d) / s)
	}
	return total
}

// PerfPerWatt returns the service's performance-per-Watt on p normalized
// to the multicore CMP (Fig 15's normalization): perf = 1/latency, power
// = platform TDP from Table 6.
func PerfPerWatt(st ServiceTimes, p Platform, mode Mode) float64 {
	lat := Accelerate(st, p, mode)
	latCMP := Accelerate(st, CMP, mode)
	ppwP := 1 / (lat.Seconds() * Specs[p].TDPWatts)
	ppwCMP := 1 / (latCMP.Seconds() * Specs[CMP].TDPWatts)
	return ppwP / ppwCMP
}

// DefaultServiceTimes returns baseline service decompositions with the
// paper's shape: ASR dominated by acoustic scoring, QA by the three NLP
// kernels (~85% of cycles, Fig 9), IMM by FE+FD. Magnitudes follow the
// paper's reported baselines (ASR ~4.2 s for GMM; QA seconds-scale; IMM
// sub-second per image), so figure reproductions have sensible units
// even without live measurement. Live measurement (the bench harness)
// replaces these with numbers from the running Go pipeline.
func DefaultServiceTimes() map[Service]ServiceTimes {
	// The 3.7x HMM-search speedup for platforms whose DNN/GMM numbers do
	// not already include it (paper §4.4.1, citing [35]).
	hmmAccel := map[Platform]float64{GPU: 3.7, Phi: 3.7, FPGA: 3.7}
	return map[Service]ServiceTimes{
		ServiceASRGMM: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelGMM: 3600 * time.Millisecond, // scoring dominates (Fig 9)
			},
			Remainder:         600 * time.Millisecond, // HMM search + front-end
			RemainderSpeedups: hmmAccel,
		},
		ServiceASRDNN: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelDNN: 2800 * time.Millisecond,
			},
			Remainder: 500 * time.Millisecond,
			// Table 5's CMP/GPU DNN entries (and RASR's multithreaded Phi
			// port) parallelize the whole framework including the HMM
			// search; FPGA accelerates only scoring, leaving search at
			// the cited 3.7x.
			RemainderSpeedups: map[Platform]float64{CMP: 6.0, GPU: 54.7, Phi: 11.2, FPGA: 3.7},
		},
		ServiceQA: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelStemmer: 3500 * time.Millisecond,
				suite.KernelRegex:   2300 * time.Millisecond,
				suite.KernelCRF:     2000 * time.Millisecond,
			},
			Remainder: 800 * time.Millisecond, // search etc. (~12% of QA, §5.1.1)
		},
		ServiceIMM: {
			Components: map[suite.Kernel]time.Duration{
				suite.KernelFE: 180 * time.Millisecond,
				suite.KernelFD: 450 * time.Millisecond, // descriptors dominate IMM
			},
			Remainder: 10 * time.Millisecond, // ANN search + ranking
		},
	}
}

// Validate checks a service decomposition for use in the harness.
func Validate(st ServiceTimes) error {
	if len(st.Components) == 0 {
		return fmt.Errorf("accel: service has no accelerable components")
	}
	for k, d := range st.Components {
		if _, ok := table5[k]; !ok {
			return fmt.Errorf("accel: unknown kernel %q", k)
		}
		if d <= 0 {
			return fmt.Errorf("accel: component %q has non-positive time", k)
		}
	}
	if st.Remainder < 0 {
		return fmt.Errorf("accel: negative remainder")
	}
	return nil
}
