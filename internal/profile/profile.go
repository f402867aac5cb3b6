// Package profile reproduces the paper's Fig 10 analysis: per-kernel IPC
// and top-down pipeline bottleneck breakdowns, and the conclusion that
// even a stall-free general-purpose core buys at most ~3x — so the
// scalability gap cannot be closed without accelerators.
//
// The paper measured these with Intel VTune on a Haswell; hardware
// counters are not available to this reproduction, so the breakdowns are
// carried as model data (values read from Fig 10) and the bound
// computation on top of them is implemented and tested here. The numbers
// feed the Fig 10 bench, which prints the same rows the figure plots.
package profile

import "sirius/internal/suite"

// issueWidth is the sustained micro-op issue width of the Haswell core
// the bound is computed against.
const issueWidth = 4.0

// Breakdown is one kernel's top-down cycle accounting: the four
// categories sum to 1.
type Breakdown struct {
	IPC            float64
	Retiring       float64 // useful work
	FrontEnd       float64 // fetch/decode stalls
	BadSpeculation float64
	BackEnd        float64 // memory/execution stalls
}

// Breakdowns carries Fig 10's per-kernel measurements (read from the
// figure; DNN and Regex run efficiently, the rest stall more).
var Breakdowns = map[suite.Kernel]Breakdown{
	suite.KernelGMM:     {IPC: 1.3, Retiring: 0.33, FrontEnd: 0.08, BadSpeculation: 0.05, BackEnd: 0.54},
	suite.KernelDNN:     {IPC: 2.2, Retiring: 0.55, FrontEnd: 0.05, BadSpeculation: 0.03, BackEnd: 0.37},
	suite.KernelStemmer: {IPC: 1.4, Retiring: 0.35, FrontEnd: 0.18, BadSpeculation: 0.17, BackEnd: 0.30},
	suite.KernelRegex:   {IPC: 2.0, Retiring: 0.50, FrontEnd: 0.12, BadSpeculation: 0.13, BackEnd: 0.25},
	suite.KernelCRF:     {IPC: 1.2, Retiring: 0.30, FrontEnd: 0.10, BadSpeculation: 0.12, BackEnd: 0.48},
	suite.KernelFE:      {IPC: 1.5, Retiring: 0.38, FrontEnd: 0.06, BadSpeculation: 0.06, BackEnd: 0.50},
	suite.KernelFD:      {IPC: 1.6, Retiring: 0.40, FrontEnd: 0.06, BadSpeculation: 0.07, BackEnd: 0.47},
}

// StallFreeSpeedupBound returns the maximum speedup available from a
// hypothetical perfect core (no front-end, speculation or back-end
// stalls): the ratio of the issue width to the achieved IPC. This is the
// "even with all stall cycles removed, the maximum speedup is bound by
// around 3x" computation of §3.
func StallFreeSpeedupBound(b Breakdown) float64 {
	if b.IPC <= 0 {
		return issueWidth
	}
	return issueWidth / b.IPC
}

// MeanSpeedupBound averages the bound across the suite.
func MeanSpeedupBound() float64 {
	var sum float64
	for _, k := range suite.Kernels {
		sum += StallFreeSpeedupBound(Breakdowns[k])
	}
	return sum / float64(len(suite.Kernels))
}
