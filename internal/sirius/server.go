package sirius

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/envelope"
	"sirius/internal/profile"
	"sirius/internal/suite"
	"sirius/internal/telemetry"
	"sirius/internal/vision"
)

// Server exposes the pipeline as the web service of Figure 2: mobile
// devices POST compressed recordings and images, the server replies with
// the answer or action in JSON. Alongside the serving endpoint it
// carries the operational surface a WSC operator needs: Prometheus-style
// /metrics, JSON /stats with tail percentiles read off the same
// registry, a ring buffer of recent request traces at /debug/traces, and
// the Go profiler under /debug/pprof/.
type Server struct {
	pipeline *Pipeline
	mux      *http.ServeMux
	start    time.Time   // /stats uptime origin
	cache    *queryCache // nil until EnableCache

	// ready gates /readyz: true while the server accepts new work,
	// false during graceful drain — the frontend's health checks stop
	// routing here before the listener closes. Liveness (/healthz)
	// stays true throughout: the process is alive, just not accepting.
	ready atomic.Bool

	// Admission control and deadlines. maxInflight/timeout/maxBody are
	// set before serving (SetMaxInflight/SetTimeout/SetMaxBodyBytes) and
	// read-only after; admitted is the CAS-gated live query count the
	// inflight gauge mirrors.
	maxInflight int64
	timeout     time.Duration
	maxBody     int64
	admitted    atomic.Int64

	// queryDelay, when set, injects a synthetic serialized service time
	// per query (see SetQueryDelay); delayMu is the single FIFO slot the
	// delayed queries queue behind.
	queryDelay time.Duration
	delayMu    sync.Mutex

	registry *telemetry.Registry
	traces   *telemetry.TraceLog
	slo      *telemetry.SLO          // sirius_slo_* and /slo
	queries  *telemetry.CounterVec   // sirius_queries_total{kind}
	errors   *telemetry.CounterVec   // sirius_query_errors_total{reason}
	inflight *telemetry.Gauge        // sirius_inflight_requests
	shed     *telemetry.Counter      // sirius_shed_total
	timeouts *telemetry.Counter      // sirius_timeouts_total
	queryLat *telemetry.HistogramVec // sirius_query_latency_seconds{kind}
	stageLat *telemetry.HistogramVec // sirius_stage_latency_seconds{stage}: asr, qa, imm
	// precisions counts voice queries by the scoring precision they
	// actually ran under (fp64 vs int8) — the serving-side visibility
	// for the quantized path.
	precisions *telemetry.CounterVec // sirius_query_precision_total{precision}

	// /v1/stream session metrics. Stream latency stays out of queryLat
	// — a session legitimately lasts as long as its audio, so folding
	// it into the 500 ms query SLO would burn error budget on healthy
	// traffic.
	streamSessions  *telemetry.CounterVec // sirius_stream_sessions_total{outcome}
	streamChunkLat  *telemetry.Histogram  // sirius_stream_chunk_seconds
	streamPartials  *telemetry.Counter    // sirius_stream_partials_total
	streamStability *telemetry.Histogram  // sirius_stream_partial_stability_seconds
}

// traceLogCapacity bounds /debug/traces memory: spans are small, and 64
// requests of history is plenty to inspect a latency incident.
const traceLogCapacity = 64

// NewServer wraps a pipeline in an HTTP handler exposing /v1/query,
// /v1/stream, /stats, /healthz, /readyz, /metrics, /debug/traces, and
// /debug/pprof/*.
func NewServer(p *Pipeline) *Server {
	reg := telemetry.NewRegistry()
	s := &Server{
		pipeline: p,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		registry: reg,
		traces:   telemetry.NewTraceLog(traceLogCapacity),
		queries:  reg.NewCounterVec("sirius_queries_total", "Queries served, by pipeline classification.", "kind"),
		errors:   reg.NewCounterVec("sirius_query_errors_total", "Failed queries, by failure class.", "reason"),
		inflight: reg.NewGauge("sirius_inflight_requests", "Queries currently being processed."),
		shed:     reg.NewCounter("sirius_shed_total", "Queries rejected by the max-inflight admission gate."),
		timeouts: reg.NewCounter("sirius_timeouts_total", "Queries that exceeded their deadline."),
		queryLat: reg.NewHistogramVec("sirius_query_latency_seconds", "End-to-end query latency, by kind.", "kind"),
		stageLat: reg.NewHistogramVec("sirius_stage_latency_seconds", "Pipeline stage latency (asr/qa/imm; their kernels are sirius_stage_kernel_seconds).", "stage"),
		precisions: reg.NewCounterVec("sirius_query_precision_total",
			"Voice queries by acoustic scoring precision (fp64/int8).", "precision"),
		streamSessions: reg.NewCounterVec("sirius_stream_sessions_total",
			"Streaming ASR sessions, by outcome (ok/timeout/canceled/error).", "outcome"),
		streamChunkLat: reg.NewHistogram("sirius_stream_chunk_seconds",
			"Per-chunk processing latency on /v1/stream (feature extraction + incremental decode)."),
		streamPartials: reg.NewCounter("sirius_stream_partials_total",
			"Partial transcript events emitted on /v1/stream."),
		streamStability: reg.NewHistogram("sirius_stream_partial_stability_seconds",
			"How long each emitted partial had been stable before emission."),
		maxBody: defaultMaxBodyBytes,
	}
	s.ready.Store(true)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/stats", s.handleStats)
	// Liveness vs readiness: /healthz answers "is the process up",
	// /readyz answers "may the router send new work" — they diverge
	// during graceful drain.
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The probe doubles as a load report: the frontend's health
		// checker reads this header, so a backend receiving no /v1/query
		// traffic still refreshes its reported in-flight figure (the
		// /v1/query header alone can never report an idle backend — it
		// counts the request carrying it).
		w.Header().Set("X-Sirius-Inflight", strconv.FormatInt(s.inflight.Value(), 10))
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// The measured stage/kernel breakdown the pipeline hot paths feed
	// surfaces on the same scrape.
	telemetry.RegisterKernelBreakdown(reg)
	// Default SLO: 99% of queries under 500 ms — the paper's interactive
	// latency bar. SetSLO overrides it before serving.
	s.slo = telemetry.NewSLOFromVec(s.queryLat, 500*time.Millisecond, 0.99)
	s.slo.Register(reg)
	s.mux.Handle("/slo", s.slo.Handler())
	s.mux.Handle("/metrics", reg.Handler())
	s.mux.Handle("/debug/traces", s.traces.Handler())
	s.mux.Handle("/debug/breakdown", telemetry.BreakdownHandler(breakdownModel()))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// A pipeline built with BatchScoring exposes its coalescing stats on
	// this server's /metrics alongside the query series.
	if b := p.Batcher(); b != nil {
		b.RegisterMetrics(reg)
	}
	return s
}

// EnableCache attaches a bounded LRU result cache of the given capacity
// to the query path and exposes its hit/miss/eviction counters on
// /metrics. Responses served from the cache carry X-Sirius-Cache: hit
// and skip the pipeline entirely.
func (s *Server) EnableCache(capacity int) {
	if capacity <= 0 || s.cache != nil {
		return
	}
	s.cache = newQueryCache(capacity)
	s.cache.registerMetrics(s.registry)
}

// CacheLen reports the live result-cache entry count (0 when disabled).
func (s *Server) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

// Registry exposes the server's metrics registry (for embedding hosts
// that want to add their own series).
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// SetTraceBuffer resizes the /debug/traces ring to hold the last n
// requests (-trace-buffer). Call before serving; buffered traces drop.
func (s *Server) SetTraceBuffer(n int) {
	if n > 0 {
		s.traces.Resize(n)
	}
}

// SetSLO overrides the default latency objective (99% < 500ms). Call
// before serving.
func (s *Server) SetSLO(target time.Duration, objective float64) {
	s.slo.Configure(target, objective)
}

// breakdownModel adapts the paper's Fig 10 per-kernel profiles
// (internal/profile, keyed by suite kernel) into the stage/kernel
// shape /debug/breakdown renders next to the measured numbers.
func breakdownModel() map[string]map[string]telemetry.KernelModel {
	stageOf := map[suite.Kernel]string{
		suite.KernelGMM:     "asr",
		suite.KernelDNN:     "asr",
		suite.KernelStemmer: "qa",
		suite.KernelRegex:   "qa",
		suite.KernelCRF:     "qa",
		suite.KernelFE:      "imm",
		suite.KernelFD:      "imm",
	}
	model := map[string]map[string]telemetry.KernelModel{}
	for k, b := range profile.Breakdowns {
		stage := stageOf[k]
		if stage == "" {
			continue
		}
		if model[stage] == nil {
			model[stage] = map[string]telemetry.KernelModel{}
		}
		model[stage][string(k)] = telemetry.KernelModel{
			IPC:            b.IPC,
			Retiring:       b.Retiring,
			FrontEnd:       b.FrontEnd,
			BadSpeculation: b.BadSpeculation,
			BackEnd:        b.BackEnd,
		}
	}
	return model
}

// defaultMaxBodyBytes caps a /v1/query request body (either encoding) —
// generous for a compressed recording plus a photo, small enough that a
// runaway upload cannot spool unbounded bytes to disk.
const defaultMaxBodyBytes = 32 << 20

// SetMaxInflight installs the admission-control gate: at most n queries
// run concurrently, excess load is shed with a 429 "overloaded"
// envelope and a Retry-After header. n <= 0 means unlimited. Call
// before serving; not safe to change concurrently with requests.
func (s *Server) SetMaxInflight(n int) { s.maxInflight = int64(n) }

// SetTimeout bounds every query's processing time: a query exceeding d
// is aborted mid-stage and answered with a 503 "timeout" envelope.
// Clients can only tighten it per request via X-Sirius-Timeout-Ms.
// d <= 0 means no server-imposed deadline. Call before serving.
func (s *Server) SetTimeout(d time.Duration) { s.timeout = d }

// SetQueryDelay injects a synthetic per-query service time: each query
// sleeps d while holding a single shared slot, so concurrent queries
// queue FIFO behind one another exactly like dcsim's single-server
// queue at a fixed service cost. This is load-test fault injection —
// it makes a replica's capacity a known constant (1/d queries per
// second) at near-zero CPU, which is what the autoscaler smoke needs
// to drive real queueing behavior on a small CI box. d <= 0 disables.
// Call before serving.
func (s *Server) SetQueryDelay(d time.Duration) { s.queryDelay = d }

// SetMaxBodyBytes overrides the request-body cap (default 32 MiB).
// Oversized bodies are rejected with a 413 "body_too_large" envelope.
// Call before serving.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n > 0 {
		s.maxBody = n
	}
}

// admit reserves an admission slot, enforcing maxInflight with a CAS
// loop so concurrent arrivals cannot overshoot the gate. The inflight
// gauge mirrors the admitted count for the load header and /metrics.
func (s *Server) admit() bool {
	for {
		cur := s.admitted.Load()
		if s.maxInflight > 0 && cur >= s.maxInflight {
			return false
		}
		if s.admitted.CompareAndSwap(cur, cur+1) {
			s.inflight.Inc()
			return true
		}
	}
}

// release returns an admission slot.
func (s *Server) release() {
	s.admitted.Add(-1)
	s.inflight.Dec()
}

// SetReady flips readiness: pass false at the start of graceful drain
// so /readyz tells the frontend to stop routing here, while in-flight
// requests finish and /healthz stays green.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// Inflight returns the number of queries currently being processed —
// the load figure backend mode reports in the X-Sirius-Inflight header.
func (s *Server) Inflight() int64 { return s.inflight.Value() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tracedResponse is the /v1/query reply when ?trace=1 is set: the normal
// response plus the request's span tree.
type tracedResponse struct {
	Response
	Trace *telemetry.Trace `json:"trace"`
}

// ErrorEnvelope is the structured error body every query-path failure
// returns (see internal/envelope for the shape, reason vocabulary, and
// reason→status mapping shared by every tier). The frontend relays it
// verbatim.
type ErrorEnvelope = envelope.Envelope

// WriteErrorEnvelope sends a JSON error envelope with the given status.
func WriteErrorEnvelope(w http.ResponseWriter, code int, reason, requestID, msg string) {
	envelope.Write(w, code, reason, requestID, msg)
}

// queryError records a failed query in metrics and replies with the
// error envelope.
func (s *Server) queryError(w http.ResponseWriter, code int, reason, requestID, msg string) {
	s.errors.With(reason).Inc()
	WriteErrorEnvelope(w, code, reason, requestID, msg)
}

// jsonQuery is the application/json request body for /v1/query: any of
// a typed query, a base64 16-bit WAV recording, and a base64 PNG photo,
// plus the acoustic scoring precision for voice queries.
type jsonQuery struct {
	Text      string `json:"text,omitempty"`
	Audio     []byte `json:"audio,omitempty"`     // WAV bytes, base64 in JSON
	Image     []byte `json:"image,omitempty"`     // PNG bytes, base64 in JSON
	Precision string `json:"precision,omitempty"` // "fp64" (or "" for it), or "int8" on a DNN server
}

// bodyTooLarge reports whether err came from the http.MaxBytesReader
// cap handleQuery installs on the request body.
func bodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// parseQuery decodes either request encoding into a pipeline Request:
// multipart/form-data with "audio"/"image"/"text" parts (the classic
// mobile upload) or application/json with base64 payloads (the v1
// structured form). A non-empty reason means the request was rejected.
// The body arrives capped by http.MaxBytesReader, so both encodings hit
// a hard limit instead of spooling an oversized upload to disk.
func (s *Server) parseQuery(r *http.Request) (req Request, reason, msg string) {
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mt == "application/json" {
		var q jsonQuery
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			if bodyTooLarge(err) {
				return req, "body_too_large", fmt.Sprintf("request body exceeds %d bytes", s.maxBody)
			}
			return req, "bad_json", "bad json body: " + err.Error()
		}
		req.Text = q.Text
		if _, err := asr.ParsePrecision(q.Precision); err != nil {
			return req, "bad_precision", err.Error()
		}
		req.Precision = q.Precision
		if len(q.Audio) > 0 {
			samples, sr, err := audio.ReadWAV(bytes.NewReader(q.Audio))
			if err != nil {
				return req, "bad_audio", "bad audio: " + err.Error()
			}
			req.Samples = resampleTo16k(samples, sr)
		}
		if len(q.Image) > 0 {
			img, err := DecodePNG(bytes.NewReader(q.Image))
			if err != nil {
				return req, "bad_image", "bad image: " + err.Error()
			}
			req.Image = img
		}
		return req, "", ""
	}
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		if bodyTooLarge(err) {
			return req, "body_too_large", fmt.Sprintf("request body exceeds %d bytes", s.maxBody)
		}
		return req, "bad_multipart", "bad multipart form: " + err.Error()
	}
	if f, _, err := r.FormFile("audio"); err == nil {
		defer f.Close()
		samples, sr, err := audio.ReadWAV(f)
		if err != nil {
			return req, "bad_audio", "bad audio: " + err.Error()
		}
		req.Samples = resampleTo16k(samples, sr)
	}
	if f, _, err := r.FormFile("image"); err == nil {
		defer f.Close()
		img, err := DecodePNG(f)
		if err != nil {
			return req, "bad_image", "bad image: " + err.Error()
		}
		req.Image = img
	}
	req.Text = r.FormValue("text")
	if prec := r.FormValue("precision"); prec != "" {
		if _, err := asr.ParsePrecision(prec); err != nil {
			return req, "bad_precision", err.Error()
		}
		req.Precision = prec
	}
	return req, "", ""
}

// resampleTo16k converts a recording to the acoustic front-end's rate.
// Phones record at many rates; 16 kHz passes through untouched.
func resampleTo16k(samples []float64, sr int) []float64 {
	if sr != 16000 {
		samples = audio.Resample(samples, sr, 16000)
	}
	return samples
}

// handleQuery serves /v1/query. It accepts multipart form data ("audio":
// 16 kHz mono 16-bit WAV, "image": PNG, "text": a pre-transcribed query,
// "precision") and, on the JSON content type, the jsonQuery body with
// base64 payloads. Responses are identical across the two encodings.
//
// Append ?trace=1 to get the per-stage span tree back with the answer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The request id comes first so even parse failures carry it: adopt
	// the caller's X-Request-Id (the frontend mints one per client query
	// and forwards it, making /debug/traces correlate across tiers) or
	// mint one for direct clients.
	ctx := r.Context()
	reqID := telemetry.RequestIDFromContext(ctx)
	if reqID == "" {
		reqID = r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		ctx = telemetry.ContextWithRequestID(ctx, reqID)
	}
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		s.queryError(w, http.StatusMethodNotAllowed, "bad_method", reqID, "POST required")
		return
	}
	// Admission gate: past maxInflight, shed now — a 429 the client (or
	// the cluster frontend, which retries it elsewhere) handles beats
	// queueing work the deadline will kill anyway.
	if !s.admit() {
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.queryError(w, http.StatusTooManyRequests, "overloaded", reqID, "server at max in-flight queries")
		return
	}
	defer s.release()
	// Report instantaneous load to the caller: the cluster frontend
	// reads this header to steer least-loaded (P2C) routing.
	w.Header().Set("X-Sirius-Inflight", strconv.FormatInt(s.inflight.Value(), 10))

	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	req, reason, msg := s.parseQuery(r)
	if reason != "" {
		code := http.StatusBadRequest
		if reason == "body_too_large" {
			code = http.StatusRequestEntityTooLarge
		}
		s.queryError(w, code, reason, reqID, msg)
		return
	}

	// Per-request deadline: the server's -timeout and the client's
	// X-Sirius-Timeout-Ms header nest, so whichever expires first wins.
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	if ms := r.Header.Get("X-Sirius-Timeout-Ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
			defer cancel()
		}
	}

	// Synthetic serialized service time (SetQueryDelay): queue FIFO
	// behind the single delay slot, bailing out if the deadline expires
	// while waiting — the pipeline below turns the expired context into
	// the normal timeout envelope.
	if s.queryDelay > 0 {
		s.delayMu.Lock()
		select {
		case <-time.After(s.queryDelay):
		case <-ctx.Done():
		}
		s.delayMu.Unlock()
	}

	// Cache lookup before any pipeline work. Trace requests bypass the
	// cache: a cached response has no fresh span tree to attach.
	wantTrace := r.URL.Query().Get("trace") == "1"
	var key string
	if s.cache != nil && !wantTrace {
		key = cacheKey(req)
		if key != "" {
			if resp, ok := s.cache.get(key); ok {
				w.Header().Set("X-Sirius-Cache", "hit")
				// Hits are served queries, but at their actual (~0)
				// service time — replaying the cached response's original
				// pipeline latency would freeze /stats percentiles.
				elapsed := time.Since(start)
				s.queries.With(string(resp.Kind)).Inc()
				s.queryLat.With(string(resp.Kind)).ObserveTrace(elapsed, reqID)
				w.Header().Set("Content-Type", "application/json")
				if err := json.NewEncoder(w).Encode(resp); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
				return
			}
			w.Header().Set("X-Sirius-Cache", "miss")
		}
	}

	// Every query runs under a trace; the ring buffer keeps recent ones
	// for /debug/traces whether or not this client asked for the dump.
	// When the caller sent a span context (the cluster frontend's
	// X-Sirius-Trace), the trace roots under it and the finished span
	// tree rides back in a response header for cross-tier stitching.
	sc, remote := telemetry.ExtractTraceContext(r.Header)
	var tr *telemetry.Trace
	if remote {
		ctx, tr = telemetry.StartTraceRemote(ctx, "query", sc)
	} else {
		ctx, tr = telemetry.StartTrace(ctx, "query")
	}
	resp, err := s.pipeline.Process(ctx, req)
	tr.Finish()
	s.traces.Add(tr)
	if remote && sc.Sampled {
		if enc := tr.EncodeSpans(); enc != "" {
			w.Header().Set(telemetry.TraceSpansHeader, enc)
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrEmptyQuery):
			s.queryError(w, http.StatusBadRequest, "empty_query", reqID, "provide audio, text, or text+image")
		case errors.Is(err, ErrBadPrecision):
			s.queryError(w, http.StatusBadRequest, "bad_precision", reqID, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Inc()
			s.queryError(w, http.StatusServiceUnavailable, "timeout", reqID, "query deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client gone mid-pipeline; 499 (client closed request) keeps
			// the books balanced even though nobody reads the reply.
			s.queryError(w, 499, "canceled", reqID, "request canceled")
		default:
			s.queryError(w, http.StatusUnprocessableEntity, "pipeline", reqID, err.Error())
		}
		return
	}
	s.observe(resp, reqID)
	if key != "" {
		s.cache.put(key, resp)
	}

	w.Header().Set("Content-Type", "application/json")
	var body any = resp
	if wantTrace {
		body = tracedResponse{Response: resp, Trace: tr}
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// observe feeds one served response into the Prometheus registry, the
// one record /stats reads too: end-to-end latency per kind (with the
// request id retained as the bucket's exemplar, so tail buckets link to
// /debug/traces), and latency for the stages the query exercised — a
// text query has no ASR time, and zero-filling would drag the ASR tail
// toward the floor. The kernels inside each stage are timed where they
// run, in sirius_stage_kernel_seconds.
func (s *Server) observe(resp Response, reqID string) {
	s.queries.With(string(resp.Kind)).Inc()
	s.queryLat.With(string(resp.Kind)).ObserveTrace(resp.Latency.Total, reqID)
	if resp.Precision != "" {
		s.precisions.With(resp.Precision).Inc()
	}
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"asr", resp.Latency.ASR},
		{"qa", resp.Latency.QA},
		{"imm", resp.Latency.IMM},
	} {
		if st.d > 0 {
			s.stageLat.With(st.name).Observe(st.d)
		}
	}
}

// EncodePNG writes a vision.Image as an 8-bit grayscale PNG.
func EncodePNG(w io.Writer, im *vision.Image) error {
	g := image.NewGray(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := im.Pix[y*im.W+x]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			g.Pix[y*g.Stride+x] = uint8(v*255 + 0.5)
		}
	}
	return png.Encode(w, g)
}

// DecodePNG reads any PNG into a grayscale vision.Image.
func DecodePNG(r io.Reader) (*vision.Image, error) {
	src, err := png.Decode(r)
	if err != nil {
		return nil, err
	}
	b := src.Bounds()
	im := vision.NewImage(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r16, g16, b16, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			// ITU-R BT.601 luma.
			im.Pix[y*im.W+x] = (0.299*float64(r16) + 0.587*float64(g16) + 0.114*float64(b16)) / 65535
		}
	}
	return im, nil
}

// BuildJSONQuery assembles the application/json body a client POSTs to
// /v1/query. Any of samples, img, text may be zero-valued.
func BuildJSONQuery(samples []float64, img *vision.Image, text string) (body *bytes.Buffer, contentType string, err error) {
	return BuildJSONQueryPrecision(samples, img, text, "")
}

// BuildJSONQueryPrecision is BuildJSONQuery with the acoustic scoring
// precision field set ("fp64", "int8", or "" to omit it).
func BuildJSONQueryPrecision(samples []float64, img *vision.Image, text, precision string) (body *bytes.Buffer, contentType string, err error) {
	var q jsonQuery
	q.Text = text
	q.Precision = precision
	if samples != nil {
		var wav bytes.Buffer
		if err := audio.WriteWAV(&wav, samples, 16000); err != nil {
			return nil, "", err
		}
		q.Audio = wav.Bytes()
	}
	if img != nil {
		var png bytes.Buffer
		if err := EncodePNG(&png, img); err != nil {
			return nil, "", err
		}
		q.Image = png.Bytes()
	}
	body = &bytes.Buffer{}
	if err := json.NewEncoder(body).Encode(q); err != nil {
		return nil, "", err
	}
	return body, "application/json", nil
}

// BuildMultipartQuery assembles the multipart body a client POSTs to
// /v1/query. Any of samples, img, text may be zero-valued.
func BuildMultipartQuery(samples []float64, img *vision.Image, text string) (body *bytes.Buffer, contentType string, err error) {
	body = &bytes.Buffer{}
	mw := multipart.NewWriter(body)
	if samples != nil {
		fw, err := mw.CreateFormFile("audio", "query.wav")
		if err != nil {
			return nil, "", err
		}
		if err := audio.WriteWAV(fw, samples, 16000); err != nil {
			return nil, "", err
		}
	}
	if img != nil {
		fw, err := mw.CreateFormFile("image", "query.png")
		if err != nil {
			return nil, "", err
		}
		if err := EncodePNG(fw, img); err != nil {
			return nil, "", err
		}
	}
	if text != "" {
		if err := mw.WriteField("text", text); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return body, mw.FormDataContentType(), nil
}
