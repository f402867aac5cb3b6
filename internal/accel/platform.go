// Package accel models the accelerator platforms of the paper's design
// space study (§4-5): the multicore Xeon baseline, a GTX 770 class GPU, a
// Xeon Phi 5110P, and a Virtex-6 FPGA. The physical hardware is not
// available to this reproduction, so the package provides two modes:
//
//   - Calibrated: per-kernel speedups taken directly from the paper's
//     Table 5 (the paper itself sources several of those numbers from
//     prior literature rather than its own ports).
//   - Analytic: a first-principles roofline/Amdahl model that derives
//     speedups from kernel characteristics and Table 3 platform specs;
//     tests assert it reproduces Table 5's ordering and rough magnitudes.
//
// Either mode turns measured single-thread kernel times from the live Go
// implementation into projected accelerated service latencies (Fig 14),
// energy efficiency (Fig 15) and the datacenter-level analyses in
// internal/dcsim.
package accel

import (
	"fmt"

	"sirius/internal/suite"
)

// Platform identifies a server accelerator configuration.
type Platform string

// The paper's four platforms plus the single-core baseline the Suite
// speedups are normalized to.
const (
	// Baseline is one Haswell core (speedup 1.0 by definition).
	Baseline Platform = "baseline"
	// CMP is the multicore Xeon (Pthreads in the paper, goroutines here).
	CMP Platform = "cmp"
	// GPU is the NVIDIA GTX 770.
	GPU Platform = "gpu"
	// Phi is the Intel Xeon Phi 5110P.
	Phi Platform = "phi"
	// FPGA is the Xilinx Virtex-6 ML605.
	FPGA Platform = "fpga"
)

// Platforms lists the accelerated platforms in presentation order.
var Platforms = []Platform{CMP, GPU, Phi, FPGA}

// Spec carries Table 3 (platform specifications) and Table 6 (power TDP
// and purchase cost) data.
type Spec struct {
	FreqGHz    float64
	Cores      int
	MemBWGBs   float64
	PeakTFLOPS float64
	TDPWatts   float64 // Table 6
	CostUSD    float64 // Table 6
}

// Specs reproduces Tables 3 and 6, each platform commented with its
// Table 3 model.
var Specs = map[Platform]Spec{
	// Intel Xeon E3-1240 V3, one core
	Baseline: {FreqGHz: 3.4, Cores: 1, MemBWGBs: 25.6, PeakTFLOPS: 0.125, TDPWatts: 80, CostUSD: 250},
	// Intel Xeon E3-1240 V3
	CMP: {FreqGHz: 3.4, Cores: 4, MemBWGBs: 25.6, PeakTFLOPS: 0.5, TDPWatts: 80, CostUSD: 250},
	// NVIDIA GTX 770
	GPU: {FreqGHz: 1.05, Cores: 8, MemBWGBs: 224, PeakTFLOPS: 3.2, TDPWatts: 230, CostUSD: 399},
	// Intel Xeon Phi 5110P
	Phi: {FreqGHz: 1.05, Cores: 60, MemBWGBs: 320, PeakTFLOPS: 2.1, TDPWatts: 225, CostUSD: 2437},
	// Xilinx Virtex-6 ML605
	FPGA: {FreqGHz: 0.4, Cores: 0, MemBWGBs: 6.4, PeakTFLOPS: 0.5, TDPWatts: 22, CostUSD: 1795},
}

// table5 reproduces the paper's Table 5: per-kernel speedup over the
// single-threaded Haswell baseline. Bracketed citations in the paper mark
// numbers taken from prior literature; they are reproduced verbatim.
var table5 = map[suite.Kernel]map[Platform]float64{
	suite.KernelGMM:     {CMP: 3.5, GPU: 70.0, Phi: 1.1, FPGA: 169.0},
	suite.KernelDNN:     {CMP: 6.0, GPU: 54.7, Phi: 11.2, FPGA: 110.5},
	suite.KernelStemmer: {CMP: 4.0, GPU: 6.2, Phi: 5.6, FPGA: 30.0},
	suite.KernelRegex:   {CMP: 3.9, GPU: 48.0, Phi: 1.1, FPGA: 168.2},
	suite.KernelCRF:     {CMP: 3.7, GPU: 3.8, Phi: 4.7, FPGA: 7.5},
	suite.KernelFE:      {CMP: 5.2, GPU: 10.5, Phi: 2.5, FPGA: 34.6},
	suite.KernelFD:      {CMP: 5.9, GPU: 120.5, Phi: 12.7, FPGA: 75.5},
}

// speedup returns the calibrated Table 5 speedup of kernel on platform.
// Baseline returns 1.
func speedup(k suite.Kernel, p Platform) (float64, error) {
	if p == Baseline {
		return 1, nil
	}
	row, ok := table5[k]
	if !ok {
		return 0, fmt.Errorf("accel: unknown kernel %q", k)
	}
	s, ok := row[p]
	if !ok {
		return 0, fmt.Errorf("accel: unknown platform %q", p)
	}
	return s, nil
}

// MustSpeedup is Speedup for static kernel/platform pairs.
func MustSpeedup(k suite.Kernel, p Platform) float64 {
	s, err := speedup(k, p)
	if err != nil {
		panic(err)
	}
	return s
}
