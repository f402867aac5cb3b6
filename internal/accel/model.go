package accel

import (
	"math"

	"sirius/internal/suite"
)

// The analytic mode derives per-kernel speedups from first principles
// instead of citing Table 5. The model is a blended roofline with Amdahl
// correction:
//
//	gain    = 1 / ((1-mb)/computeGain + mb/bandwidthGain)
//	speedup = 1 / ((1-p) + p/gain + transfer)
//
// where mb is the kernel's memory-bound fraction, p its parallel
// fraction, and transfer the host-device offload overhead as a fraction
// of baseline runtime. Platform compute/bandwidth gains are taken
// relative to what a single scalar Haswell thread actually achieves (not
// its peak): the paper's accelerator ports are hand-optimized while the
// baseline is unvectorized and cache-missy, which is exactly why Table
// 5's numbers are much larger than naive peak ratios. FPGA gains come
// from explicit pipeline parallelism at fabric clock, the way the
// paper's §4.3.4 designs scale cores to fill the fabric.

// kernelProfile characterizes one Suite kernel for the analytic model.
type kernelProfile struct {
	// ParallelFrac is the Amdahl parallel fraction.
	ParallelFrac float64
	// MemBound is the memory-bound fraction of the kernel (0 compute
	// bound .. 1 bandwidth bound).
	MemBound float64
	// Divergence is control-flow irregularity (0 uniform .. 1 fully
	// divergent); wide-SIMD platforms pay for it quadratically (warp
	// serialization on top of lane masking).
	Divergence float64
	// BaselineStreaming reports whether the single-thread baseline
	// streams memory (high effective bandwidth) or chases pointers.
	BaselineStreaming bool
	// GPUCoalesced reports whether the CUDA port achieves coalesced
	// global-memory access (the paper's GMM port restructured its data
	// layout to get this; the NLP kernels cannot).
	GPUCoalesced bool
	// TransferFrac is host-device transfer overhead relative to baseline
	// runtime (near zero for models resident in device memory).
	TransferFrac float64
	// FPGAPipeOps is the number of useful operations the kernel's FPGA
	// design retires per fabric cycle once cores are replicated to fill
	// the fabric (§4.3.4: pipelined cores x fully parallel lanes).
	FPGAPipeOps float64
}

// profiles characterizes the seven kernels, following the paper's
// descriptions: GMM streams model data and is embarrassingly parallel
// across HMM states (its CUDA port is coalesced); DNN is dense GEMM; the
// NLP kernels are branchy with irregular access; FE/FD are regular image
// kernels. FPGAPipeOps reflects how wide a pipeline each design sustains:
// the GMM core parallelizes the entire innermost loop and is replicated
// 3x (§4.3.4); regex engines scan one character per cycle across
// hundreds of replicated pattern matchers; the CRF's chain dependence
// leaves little to pipeline.
var profiles = map[suite.Kernel]kernelProfile{
	suite.KernelGMM: {ParallelFrac: 0.999, MemBound: 0.85, Divergence: 0.05,
		BaselineStreaming: false, GPUCoalesced: true, TransferFrac: 0.001, FPGAPipeOps: 1400},
	suite.KernelDNN: {ParallelFrac: 0.995, MemBound: 0.35, Divergence: 0.02,
		BaselineStreaming: true, GPUCoalesced: true, TransferFrac: 0.002, FPGAPipeOps: 900},
	suite.KernelStemmer: {ParallelFrac: 0.999, MemBound: 0.25, Divergence: 0.85,
		BaselineStreaming: false, GPUCoalesced: false, TransferFrac: 0.01, FPGAPipeOps: 250},
	suite.KernelRegex: {ParallelFrac: 0.999, MemBound: 0.55, Divergence: 0.75,
		BaselineStreaming: false, GPUCoalesced: true, TransferFrac: 0.005, FPGAPipeOps: 1400},
	suite.KernelCRF: {ParallelFrac: 0.97, MemBound: 0.45, Divergence: 0.6,
		BaselineStreaming: false, GPUCoalesced: false, TransferFrac: 0.01, FPGAPipeOps: 60},
	suite.KernelFE: {ParallelFrac: 0.98, MemBound: 0.6, Divergence: 0.3,
		BaselineStreaming: true, GPUCoalesced: true, TransferFrac: 0.02, FPGAPipeOps: 300},
	suite.KernelFD: {ParallelFrac: 0.995, MemBound: 0.3, Divergence: 0.15,
		BaselineStreaming: true, GPUCoalesced: true, TransferFrac: 0.01, FPGAPipeOps: 600},
}

// Effective single-thread baseline throughputs. A scalar, unvectorized
// Haswell thread sustains a small fraction of peak FLOPS and, when its
// access pattern is irregular, a small fraction of memory bandwidth.
const (
	baseGFLOPS      = 10.0 // ~8% of a 125 GFLOPS core: scalar, no FMA/AVX
	baseStreamGBs   = 9.0  // streaming single-thread effective bandwidth
	basePointerGBs  = 3.0  // latency-bound effective bandwidth
	gpuComputeEff   = 0.45 // hand-tuned CUDA kernels vs peak
	gpuBWEff        = 0.75 // coalesced accesses vs peak bandwidth
	gpuBWEffRandom  = 0.15 // uncoalesced: most of each transaction wasted
	phiComputeEff   = 0.10 // compiler-only port (paper §4.3.3)
	phiBWEff        = 0.25
	cmpSMTBonus     = 1.15 // 8 hardware threads on 4 cores
	divergenceFloor = 0.05 // even fully divergent code retains some SIMD use
)

// AnalyticSpeedup predicts the kernel's speedup on the platform from
// first principles.
func AnalyticSpeedup(k suite.Kernel, p Platform) float64 {
	prof, ok := profiles[k]
	if !ok {
		return 1
	}
	if p == Baseline {
		return 1
	}
	baseBW := basePointerGBs
	if prof.BaselineStreaming {
		baseBW = baseStreamGBs
	}
	spec := Specs[p]
	var computeGain, bwGain, transfer float64
	switch p {
	case CMP:
		cores := float64(spec.Cores) * cmpSMTBonus
		computeGain = cores
		// All cores share the socket's bandwidth, but four streaming cores
		// saturate much more of it than one.
		bwGain = math.Min(cores, spec.MemBWGBs*0.6/baseBW)
		transfer = 0 // same address space
	case GPU:
		// Divergence serializes warps on top of masking lanes: quadratic.
		simdEff := math.Max(divergenceFloor, (1-prof.Divergence)*(1-prof.Divergence)+divergenceFloor)
		computeGain = spec.PeakTFLOPS * 1000 * gpuComputeEff * simdEff / baseGFLOPS
		bwEff := gpuBWEffRandom
		if prof.GPUCoalesced {
			bwEff = gpuBWEff
		}
		bwGain = spec.MemBWGBs * bwEff * math.Max(divergenceFloor, 1-0.5*prof.Divergence) / baseBW
		transfer = prof.TransferFrac
	case Phi:
		simdEff := math.Max(divergenceFloor, 1-0.8*prof.Divergence)
		computeGain = spec.PeakTFLOPS * 1000 * phiComputeEff * simdEff / baseGFLOPS
		if prof.BaselineStreaming {
			bwGain = spec.MemBWGBs * phiBWEff * simdEff / baseBW
		} else {
			// In-order cores with compiler-only ports do not tolerate
			// irregular access: no better than the host thread (§4.4.1:
			// "the custom compiler may not have achieved the optimal data
			// layout").
			bwGain = 1.2
		}
		transfer = prof.TransferFrac * 2 // PCIe plus a weaker runtime
	case FPGA:
		// A pipelined datapath retires FPGAPipeOps useful ops per fabric
		// cycle; the scalar baseline retires roughly one per core cycle.
		gain := prof.FPGAPipeOps * spec.FreqGHz / Specs[Baseline].FreqGHz
		return amdahl(prof.ParallelFrac, gain, 0)
	}
	gain := blend(prof.MemBound, computeGain, bwGain)
	return amdahl(prof.ParallelFrac, gain, transfer)
}

// blend is the harmonic interpolation of compute and bandwidth gains.
func blend(memBound, computeGain, bwGain float64) float64 {
	return 1 / ((1-memBound)/computeGain + memBound/bwGain)
}

// amdahl applies the serial fraction and offload overhead.
func amdahl(parallelFrac, gain, transfer float64) float64 {
	return 1 / ((1 - parallelFrac) + parallelFrac/gain + transfer)
}
