package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime/pprof"
	"sort"
	"time"
)

// Measured cycle accounting. The paper's provisioning argument (Fig 4,
// Fig 10) attributes a query's cost to stages (ASR, QA, IMM) and to the
// hot kernels inside them (GMM/DNN scoring, Viterbi search, regex, CRF,
// feature extraction...). This file gives the reproduction the same
// attribution, measured live: hot paths run under runtime/pprof labels
// (so `go tool pprof` CPU profiles split by stage= and kernel=) while
// wall time aggregates into a process-wide histogram family served at
// /debug/breakdown next to the modeled Fig 10 numbers.

// DefaultKernels aggregates measured kernel wall time process-wide,
// labeled (stage, kernel). Detached so library code (internal/asr, qa,
// imm) observes without owning a registry; servers attach it via
// RegisterKernelBreakdown.
var DefaultKernels = newHistogramVec("stage", "kernel")

// RegisterKernelBreakdown exposes DefaultKernels on reg as
// sirius_stage_kernel_seconds.
func RegisterKernelBreakdown(reg *Registry) {
	reg.registerHistogramVec("sirius_stage_kernel_seconds",
		"Measured wall time of pipeline kernels, by stage and kernel.", DefaultKernels)
}

// WithKernel runs f with stage=/kernel= pprof labels attached — CPU
// profile samples taken inside f are attributed to the kernel — and
// records f's wall time into DefaultKernels. Labels do not follow work
// handed to pre-existing worker-pool goroutines (the mat pool), so CPU
// attribution there stays with the pool; wall time is still correct.
func WithKernel(ctx context.Context, stage, kernel string, f func(context.Context)) {
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("stage", stage, "kernel", kernel), f)
	DefaultKernels.With(stage, kernel).Observe(time.Since(start))
}

// WithLabels runs f under stage=/kernel= pprof labels without recording
// wall time — for blocks whose kernel split is recorded separately from
// existing timers (the ASR decode loop interleaves scoring and Viterbi
// search; each scoring call times itself and the search lands via
// RecordKernel, while the loop's CPU samples land here).
func WithLabels(ctx context.Context, stage, kernel string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("stage", stage, "kernel", kernel), f)
}

// RecordKernel records an already-measured kernel duration — for
// components whose time is interleaved with others and already summed
// by existing timers (QA's per-document regex/CRF/stemmer passes).
func RecordKernel(stage, kernel string, d time.Duration) {
	if d <= 0 {
		return
	}
	DefaultKernels.With(stage, kernel).Observe(d)
}

// KernelModel is the modeled (paper Fig 10) architectural profile of a
// kernel, rendered next to its measured share for comparison.
type KernelModel struct {
	IPC            float64 `json:"ipc"`
	Retiring       float64 `json:"retiring"`
	FrontEnd       float64 `json:"front_end"`
	BadSpeculation float64 `json:"bad_speculation"`
	BackEnd        float64 `json:"back_end"`
}

// KernelBreakdown is one kernel's measured share of process CPU-facing
// wall time, with the model row when one exists.
type KernelBreakdown struct {
	Kernel     string       `json:"kernel"`
	Count      uint64       `json:"count"`
	Seconds    float64      `json:"seconds"`
	Share      float64      `json:"share"`
	StageShare float64      `json:"stage_share"`
	Model      *KernelModel `json:"model,omitempty"`
}

// StageBreakdown aggregates a stage's kernels.
type StageBreakdown struct {
	Stage   string            `json:"stage"`
	Seconds float64           `json:"seconds"`
	Share   float64           `json:"share"`
	Kernels []KernelBreakdown `json:"kernels"`
}

// BreakdownReport is the /debug/breakdown document: live measured
// stage/kernel shares side-by-side with the Fig 10 model.
type BreakdownReport struct {
	TotalSeconds float64          `json:"total_seconds"`
	Stages       []StageBreakdown `json:"stages"`
	Note         string           `json:"note"`
}

// breakdown builds a report from DefaultKernels. model maps
// stage → kernel → modeled profile; missing entries render measured
// numbers only.
func breakdown(model map[string]map[string]KernelModel) BreakdownReport {
	v := DefaultKernels
	type cell struct {
		sum   time.Duration
		count uint64
	}
	measured := map[string]map[string]cell{}
	v.mu.Lock()
	for key, h := range v.children {
		ls := v.labelSets[key]
		if measured[ls[0]] == nil {
			measured[ls[0]] = map[string]cell{}
		}
		measured[ls[0]][ls[1]] = cell{sum: h.Sum(), count: h.Count()}
	}
	v.mu.Unlock()

	rep := BreakdownReport{
		Note: "Measured wall time per stage/kernel (runtime/pprof-labeled hot paths); model columns are the paper's Fig 10 values from internal/profile.",
	}
	var total time.Duration
	for _, ks := range measured {
		for _, c := range ks {
			total += c.sum
		}
	}
	rep.TotalSeconds = total.Seconds()
	for stage, ks := range measured {
		sb := StageBreakdown{Stage: stage}
		var stageSum time.Duration
		for _, c := range ks {
			stageSum += c.sum
		}
		sb.Seconds = stageSum.Seconds()
		if total > 0 {
			sb.Share = float64(stageSum) / float64(total)
		}
		for kernel, c := range ks {
			kb := KernelBreakdown{Kernel: kernel, Count: c.count, Seconds: c.sum.Seconds()}
			if total > 0 {
				kb.Share = float64(c.sum) / float64(total)
			}
			if stageSum > 0 {
				kb.StageShare = float64(c.sum) / float64(stageSum)
			}
			if m, ok := model[stage][kernel]; ok {
				mm := m
				kb.Model = &mm
			}
			sb.Kernels = append(sb.Kernels, kb)
		}
		sort.Slice(sb.Kernels, func(i, j int) bool { return sb.Kernels[i].Seconds > sb.Kernels[j].Seconds })
		rep.Stages = append(rep.Stages, sb)
	}
	sort.Slice(rep.Stages, func(i, j int) bool { return rep.Stages[i].Seconds > rep.Stages[j].Seconds })
	return rep
}

// breakdownHandler serves breakdown(model) as JSON (mount at
// /debug/breakdown).
func breakdownHandler(model map[string]map[string]KernelModel) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(breakdown(model))
	})
}
