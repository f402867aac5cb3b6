package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Ops is what one process brings to the operational surface every Sirius
// binary serves through Mount.
type Ops struct {
	Metrics *Registry // /metrics

	// Ready answers /readyz: nil means ready, an error is a 503 carrying
	// its text. A nil Ready is always ready.
	Ready func() error

	SLO    *SLO      // /slo; nil for a process that keeps no latency objective
	Traces *TraceLog // /debug/traces; nil serves an empty ring

	// Model is the paper's Fig 10 profile /debug/breakdown shows beside
	// the measured kernel shares; nil shows the measured numbers only.
	Model map[string]map[string]KernelModel
}

// Mount puts the operational routes on mux: /metrics, liveness at
// /healthz (true while the process runs), readiness at /readyz (false
// during graceful drain, so routers stop sending work before the
// listener closes), /slo, /debug/traces, /debug/breakdown and the Go
// profiler under /debug/pprof/.
func Mount(mux *http.ServeMux, o Ops) {
	mux.Handle("/metrics", o.Metrics.handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if o.Ready != nil {
			if err := o.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	if o.SLO != nil {
		mux.Handle("/slo", o.SLO.handler())
	}
	traces := o.Traces
	if traces == nil {
		traces = NewTraceLog(1)
	}
	mux.Handle("/debug/traces", traces.handler())
	mux.Handle("/debug/breakdown", breakdownHandler(o.Model))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
