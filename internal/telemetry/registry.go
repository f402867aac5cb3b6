package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metric families and renders them in the
// Prometheus text exposition format (version 0.0.4). It is deliberately
// minimal — counters, gauges and latency histograms with fixed label
// sets — because that is all the serving stack needs and the container
// has no client library to lean on.
type Registry struct {
	mu       sync.Mutex
	names    map[string]bool
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

type family struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

func (r *Registry) register(name, help, typ string, write func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("telemetry: duplicate metric " + name)
	}
	r.names[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, write: write})
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. a replica count). A
// value some other record already holds is a NewGaugeFunc over it.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// labeledVec is the shared child-management machinery of the *Vec types.
type labeledVec[T any] struct {
	mu         sync.Mutex
	labelNames []string
	children   map[string]*T
	labelSets  map[string][]string
}

func newLabeledVec[T any](labelNames []string) *labeledVec[T] {
	return &labeledVec[T]{
		labelNames: labelNames,
		children:   map[string]*T{},
		labelSets:  map[string][]string{},
	}
}

func (v *labeledVec[T]) with(values ...string) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: got %d label values for %d labels", len(values), len(v.labelNames)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	child, ok := v.children[key]
	if !ok {
		child = new(T)
		v.children[key] = child
		v.labelSets[key] = append([]string(nil), values...)
	}
	return child
}

// sortedKeys returns child keys in deterministic exposition order.
func (v *labeledVec[T]) sortedKeys() []string {
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ *labeledVec[Counter] }

// With returns (creating if needed) the child for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// HistogramVec is a latency-histogram family partitioned by label values.
type HistogramVec struct{ *labeledVec[Histogram] }

// With returns (creating if needed) the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// Counts snapshots every child's raw bucket counts (see
// Histogram.bucketCounts), keyed by the child's first label value.
func (v *HistogramVec) Counts() map[string][]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string][]uint64, len(v.children))
	for key, h := range v.children {
		out[v.labelSets[key][0]] = h.bucketCounts()
	}
	return out
}

// totalAndBelow sums every child's observation count and its
// conservative count at or below d (see Histogram.countAtOrBelow) —
// the good/total feed an SLO computes burn rates from.
func (v *HistogramVec) totalAndBelow(d time.Duration) (total, below uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, h := range v.children {
		total += h.Count()
		below += h.countAtOrBelow(d)
	}
	return total, below
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter exposes an already-allocated counter under name. The
// zero Counter is ready to use, so components that must work without a
// registry (the batch scheduler, library users) allocate their metrics
// up front and attach them to a registry only when one exists.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := NewCounterVec(labelNames...)
	r.RegisterCounterVec(name, help, v)
	return v
}

// NewCounterVec (package-level) allocates a detached labeled counter
// family, usable immediately and attachable to a registry later via
// RegisterCounterVec.
func NewCounterVec(labelNames ...string) *CounterVec {
	return &CounterVec{newLabeledVec[Counter](labelNames)}
}

// RegisterCounterVec exposes an already-allocated counter family.
func (r *Registry) RegisterCounterVec(name, help string, v *CounterVec) {
	r.register(name, help, "counter", func(w io.Writer, n string) {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, key := range v.sortedKeys() {
			fmt.Fprintf(w, "%s%s %d\n", n, labelString(v.labelNames, v.labelSets[key], "", 0), v.children[key].Value())
		}
	})
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.v.Load())
	})
	return g
}

// NewGaugeFunc exposes a float gauge computed at scrape time — for
// derived values (predicted p99s, ratios) that have no meaningful
// stored integer form.
func (r *Registry) NewGaugeFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		v := f()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%s %g\n", n, v)
	})
}

// NewHistogram registers and returns an unlabeled latency histogram,
// exposed in seconds (the Prometheus base unit for time).
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram exposes an already-allocated histogram (the zero
// Histogram is ready to use) under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		writeHistogram(w, n, nil, nil, h)
	})
}

// NewHistogramVec registers and returns a labeled histogram family,
// exposed in seconds.
func (r *Registry) NewHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	v := newHistogramVec(labelNames...)
	r.registerHistogramVec(name, help, v)
	return v
}

// newHistogramVec (package-level) allocates a detached labeled
// histogram family, usable immediately and attachable to a registry
// later via registerHistogramVec — the arrangement library code (the
// stage/kernel breakdown) uses to observe without owning a registry.
func newHistogramVec(labelNames ...string) *HistogramVec {
	return &HistogramVec{newLabeledVec[Histogram](labelNames)}
}

// registerHistogramVec exposes an already-allocated histogram family
// under name.
func (r *Registry) registerHistogramVec(name, help string, v *HistogramVec) {
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, key := range v.sortedKeys() {
			writeHistogram(w, n, v.labelNames, v.labelSets[key], v.children[key])
		}
	})
}

// labelString renders {a="x",b="y"}; extraName/extraLe append the le
// label histogram buckets need. Returns "" when there are no labels.
func labelString(names, values []string, leName string, le float64) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, n+`="`+escapeLabel(values[i])+`"`)
	}
	if leName != "" {
		if le < 0 { // +Inf sentinel
			parts = append(parts, leName+`="+Inf"`)
		} else {
			parts = append(parts, leName+`="`+strconv.FormatFloat(le, 'g', -1, 64)+`"`)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func writeHistogram(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) {
	cum := h.cumulative()
	floor := exemplarFloor(&cum, exemplarQuantile)
	for i, bound := range bucketBounds {
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, labelString(labelNames, labelValues, "le", bound.Seconds()), cum[i], exemplarSuffix(h, i, floor))
	}
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, labelString(labelNames, labelValues, "le", -1), cum[numBuckets], exemplarSuffix(h, numBuckets, floor))
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labelString(labelNames, labelValues, "", 0), h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labelNames, labelValues, "", 0), h.Count())
}

// exemplarQuantile is the export cutoff: buckets at or above this
// quantile carry their retained exemplar on /metrics (the "upper
// decile" of observations).
const exemplarQuantile = 0.9

// exemplarSuffix renders a bucket's exemplar in OpenMetrics syntax
// (" # {trace_id=\"...\"} value timestamp"), or "" when the bucket is
// below the export floor or holds no exemplar.
func exemplarSuffix(h *Histogram, bucket, floor int) string {
	if bucket < floor {
		return ""
	}
	e := h.exemplars[bucket].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %g %.3f",
		escapeLabel(e.traceID), e.value.Seconds(), float64(e.at.UnixNano())/1e9)
}

// WritePrometheus renders every registered family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.write(bw, f.name)
	}
	return bw.Flush()
}

// handler serves the registry at an HTTP endpoint (mount at /metrics).
func (r *Registry) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
