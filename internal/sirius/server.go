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
	"net/http"
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
// /metrics with tail-bucket exemplars, a ring buffer of recent request
// traces at /debug/traces, and the Go profiler under /debug/pprof/.
type Server struct {
	pipeline *Pipeline
	mux      *http.ServeMux

	// ready gates /readyz: true while the server accepts new work,
	// false during graceful drain — the frontend's health checks stop
	// routing here before the listener closes. Liveness (/healthz)
	// stays true throughout: the process is alive, just not accepting.
	ready atomic.Bool

	// Admission control and deadlines. maxInflight/timeout are set
	// before serving (SetMaxInflight/SetTimeout), maxBody is the
	// default cap, and all three are read-only after; admitted is the
	// CAS-gated live query count that sirius_inflight_requests and the
	// X-Sirius-Inflight header read.
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
	errors   *telemetry.CounterVec   // sirius_query_errors_total{reason}
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
	streamStability *telemetry.Histogram  // sirius_stream_partial_stability_seconds
}

// traceLogCapacity bounds /debug/traces memory: spans are small, and 64
// requests of history is plenty to inspect a latency incident.
const traceLogCapacity = 64

// errDraining is the /readyz answer once SetReady(false) starts a drain.
var errDraining = errors.New("draining")

// NewServer wraps a pipeline in an HTTP handler exposing /v1/query and
// /v1/stream beside the operational routes telemetry.Mount serves on
// every binary.
func NewServer(p *Pipeline) *Server {
	reg := telemetry.NewRegistry()
	var s *Server
	errs := reg.NewCounterVec("sirius_query_errors_total", "Failed queries, by failure class.", "reason")
	// The in-flight gauge reads the admission gate's own count at scrape
	// time.
	reg.NewGaugeFunc("sirius_inflight_requests", "Queries currently being processed.", func() float64 {
		return float64(s.admitted.Load())
	})
	s = &Server{
		pipeline: p,
		mux:      http.NewServeMux(),
		registry: reg,
		traces:   telemetry.NewTraceLog(traceLogCapacity),
		errors:   errs,
		queryLat: reg.NewHistogramVec("sirius_query_latency_seconds", "End-to-end query latency, by kind.", "kind"),
		stageLat: reg.NewHistogramVec("sirius_stage_latency_seconds", "Pipeline stage latency (asr/qa/imm; their kernels are sirius_stage_kernel_seconds).", "stage"),
		precisions: reg.NewCounterVec("sirius_query_precision_total",
			"Voice queries by acoustic scoring precision (fp64/int8).", "precision"),
		streamSessions: reg.NewCounterVec("sirius_stream_sessions_total",
			"Streaming ASR sessions, by outcome (ok/timeout/canceled/error).", "outcome"),
		streamChunkLat: reg.NewHistogram("sirius_stream_chunk_seconds",
			"Per-chunk processing latency on /v1/stream (feature extraction + incremental decode)."),
		streamStability: reg.NewHistogram("sirius_stream_partial_stability_seconds",
			"How long each emitted partial had been stable before emission."),
		maxBody: defaultBodyLimit,
	}
	s.ready.Store(true)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	// The measured stage/kernel breakdown the pipeline hot paths feed
	// surfaces on the same scrape.
	telemetry.RegisterKernelBreakdown(reg)
	// Default SLO: 99% of queries under 500 ms — the paper's interactive
	// latency bar. SetSLO moves the target before serving.
	s.slo = telemetry.NewSLOFromVec(s.queryLat, 500*time.Millisecond)
	s.slo.Register(reg)
	telemetry.Mount(s.mux, telemetry.Ops{
		Metrics: reg,
		Ready: func(h http.Header) error {
			// The probe doubles as a load report: the frontend's health
			// checker reads this header, so a backend receiving no /v1/query
			// traffic still refreshes its reported in-flight figure (the
			// /v1/query header alone can never report an idle backend — it
			// counts the request carrying it).
			h.Set("X-Sirius-Inflight", strconv.FormatInt(s.admitted.Load(), 10))
			if !s.ready.Load() {
				return errDraining
			}
			return nil
		},
		SLO:    s.slo,
		Traces: s.traces,
		Model:  breakdownModel(),
	})
	// A pipeline built with BatchScoring exposes its coalescing stats on
	// this server's /metrics alongside the query series.
	if b := p.Batcher(); b != nil {
		b.RegisterMetrics(reg)
	}
	return s
}

// Registry exposes the server's metrics registry (for embedding hosts
// that want to add their own series).
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// SetSLO moves the latency target of the objective (99% < 500ms by
// default). Call before serving.
func (s *Server) SetSLO(target time.Duration) {
	s.slo.Configure(target)
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

// defaultBodyLimit caps a /v1/query or /v1/stream request body —
// generous for a recording plus a photo in base64, small enough that a
// runaway upload cannot make the server buffer unbounded bytes.
const defaultBodyLimit = 32 << 20

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

// admit reserves an admission slot, enforcing maxInflight with a CAS
// loop so concurrent arrivals cannot overshoot the gate.
func (s *Server) admit() bool {
	for {
		cur := s.admitted.Load()
		if s.maxInflight > 0 && cur >= s.maxInflight {
			return false
		}
		if s.admitted.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// release returns an admission slot.
func (s *Server) release() {
	s.admitted.Add(-1)
}

// SetReady flips readiness: pass false at the start of graceful drain
// so /readyz tells the frontend to stop routing here, while in-flight
// requests finish and /healthz stays green.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tracedResponse is the /v1/query reply when ?trace=1 is set: the normal
// response plus the request's span tree.
type tracedResponse struct {
	Response
	Trace *telemetry.Trace `json:"trace"`
}

// queryError records a failed request in metrics and replies with the
// error envelope (internal/envelope: the shape, reason vocabulary and
// reason→status mapping every tier shares; the frontend relays it
// verbatim).
func (s *Server) queryError(w http.ResponseWriter, reason, requestID, msg string) {
	s.errors.With(reason).Inc()
	envelope.Write(w, reason, requestID, msg)
}

// call is a /v1/query or /v1/stream request past the prologue the two
// share (Server.begin).
type call struct {
	s     *Server
	ctx   context.Context // carries the request id, the deadline and the trace
	id    string          // X-Request-Id, adopted or minted
	trace *telemetry.Trace
	// sendSpans: the caller (the cluster frontend) sent a sampled span
	// context, so the finished span tree rides back in a response header
	// for cross-tier stitching.
	sendSpans bool
	cancel    context.CancelFunc // the deadline's; nil without one
	filed     bool               // the trace is finished and in /debug/traces
}

// begin is the request prologue /v1/query and /v1/stream share. It
// adopts the caller's X-Request-Id (the frontend mints one per client
// query and forwards it, so /debug/traces correlates across tiers) or
// mints one, first, so that even a rejected request carries it; requires
// POST; admits the request; reports the in-flight count; caps the body;
// sets the deadline; and roots a trace named name under the caller's span
// context when one was sent. When ok is false the request has been
// answered. Otherwise the handler must defer c.end().
func (s *Server) begin(w http.ResponseWriter, r *http.Request, name string) (c *call, ok bool) {
	ctx := r.Context()
	id := telemetry.RequestIDFromContext(ctx)
	if id == "" {
		id = r.Header.Get("X-Request-Id")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		ctx = telemetry.ContextWithRequestID(ctx, id)
	}
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		s.queryError(w, envelope.ReasonBadMethod, id, "POST required")
		return nil, false
	}
	// Admission gate: past maxInflight, shed now — a 429 the client (or
	// the cluster frontend, which retries it elsewhere) handles beats
	// queueing work the deadline will kill anyway.
	if !s.admit() {
		w.Header().Set("Retry-After", "1")
		s.queryError(w, envelope.ReasonOverloaded, id, "server at max in-flight queries")
		return nil, false
	}
	// Report instantaneous load to the caller: the cluster frontend
	// reads this header to steer least-loaded (P2C) routing.
	w.Header().Set("X-Sirius-Inflight", strconv.FormatInt(s.admitted.Load(), 10))
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)

	c = &call{s: s, id: id}
	if d := s.deadline(r.Header); d > 0 {
		ctx, c.cancel = context.WithTimeout(ctx, d)
	}
	// Every request runs under a trace; the ring buffer keeps recent ones
	// for /debug/traces whether or not this client asked for the dump.
	sc, remote := telemetry.ExtractTraceContext(r.Header)
	if remote {
		c.ctx, c.trace = telemetry.StartTraceRemote(ctx, name, sc)
	} else {
		c.ctx, c.trace = telemetry.StartTrace(ctx, name)
	}
	c.sendSpans = remote && sc.Sampled
	return c, true
}

// deadline is the budget a request runs under: the server's -timeout,
// which the client's X-Sirius-Timeout-Ms can only tighten. 0 means none.
func (s *Server) deadline(h http.Header) time.Duration {
	d := max(s.timeout, 0)
	if v, err := strconv.Atoi(h.Get("X-Sirius-Timeout-Ms")); err == nil && v > 0 {
		if cd := time.Duration(v) * time.Millisecond; d == 0 || cd < d {
			d = cd
		}
	}
	return d
}

// fileTrace finishes the trace and files it at /debug/traces, once. When
// the caller asked for the span tree it is set as a header on w, so a
// handler calls this before writing its reply; end calls it with nil for
// a handler that did not.
func (c *call) fileTrace(w http.ResponseWriter) {
	if c.filed {
		return
	}
	c.filed = true
	c.trace.Finish()
	c.s.traces.Add(c.trace)
	if w != nil && c.sendSpans {
		if enc := c.trace.EncodeSpans(); enc != "" {
			w.Header().Set(telemetry.TraceSpansHeader, enc)
		}
	}
}

// end files the trace if the handler has not, and gives back the
// deadline timer and the admission slot.
func (c *call) end() {
	c.fileTrace(nil)
	if c.cancel != nil {
		c.cancel()
	}
	c.s.release()
}

// jsonQuery is the /v1/query request body: any of a typed query, a
// base64 16-bit WAV recording, and a base64 PNG photo, plus the acoustic
// scoring precision for voice queries.
type jsonQuery struct {
	Text      string `json:"text,omitempty"`
	Audio     []byte `json:"audio,omitempty"`     // WAV bytes, base64 in JSON
	Image     []byte `json:"image,omitempty"`     // PNG bytes, base64 in JSON
	Precision string `json:"precision,omitempty"` // "fp64" (or "" for it), or "int8" on a DNN server
}

// Bounds on what a body's headers may declare. The largest real inputs
// are a 160×160 scene and recordings at phone rates; past these a few
// header bytes would size the allocation (a WAV declaring 1 Hz resamples
// to 16 000 floats per sample, and a PNG's pixel buffer is allocated
// from its declared size before any pixel is read).
const (
	minSampleRate  = 8000
	maxSampleRate  = 48000
	maxImagePixels = 16 << 20
)

// bodyTooLarge reports whether err came from the http.MaxBytesReader
// cap begin installs on the request body.
func bodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// decodeQuery decodes a /v1/query body — the jsonQuery document,
// whatever the request's Content-Type says — into a pipeline Request. A
// non-empty reason is the rejection, from the envelope vocabulary. The
// body arrives capped at limit bytes by http.MaxBytesReader.
func decodeQuery(body io.Reader, limit int64) (req Request, reason, msg string) {
	var q jsonQuery
	if err := json.NewDecoder(body).Decode(&q); err != nil {
		if bodyTooLarge(err) {
			return req, envelope.ReasonBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit)
		}
		return req, envelope.ReasonBadJSON, "bad json body: " + err.Error()
	}
	if _, err := asr.ParsePrecision(q.Precision); err != nil {
		return req, envelope.ReasonBadPrecision, err.Error()
	}
	req.Text, req.Precision = q.Text, q.Precision
	if len(q.Audio) > 0 {
		samples, err := decodeWAV(q.Audio)
		if err != nil {
			return req, envelope.ReasonBadAudio, "bad audio: " + err.Error()
		}
		req.Samples = samples
	}
	if len(q.Image) > 0 {
		img, err := DecodePNG(bytes.NewReader(q.Image))
		if err != nil {
			return req, envelope.ReasonBadImage, "bad image: " + err.Error()
		}
		req.Image = img
	}
	return req, "", ""
}

// decodeWAV reads a recording at the acoustic front end's 16 kHz. Phones
// record at many rates; 16 kHz passes through untouched, and a rate no
// phone uses is refused before it can size the resampled buffer.
func decodeWAV(data []byte) ([]float64, error) {
	samples, sr, err := audio.ReadWAV(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if sr < minSampleRate || sr > maxSampleRate {
		return nil, fmt.Errorf("sample rate %d Hz outside %d-%d Hz", sr, minSampleRate, maxSampleRate)
	}
	if sr != 16000 {
		samples = audio.Resample(samples, sr, 16000)
	}
	return samples, nil
}

// handleQuery serves /v1/query: the body is the jsonQuery document, and
// the reply is the Response or an error envelope.
//
// Append ?trace=1 to get the per-stage span tree back with the answer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	c, ok := s.begin(w, r, "query")
	if !ok {
		return
	}
	defer c.end()
	req, reason, msg := decodeQuery(r.Body, s.maxBody)
	if reason != "" {
		s.queryError(w, reason, c.id, msg)
		return
	}

	// Synthetic serialized service time (SetQueryDelay): queue FIFO
	// behind the single delay slot, bailing out if the deadline expires
	// while waiting — the pipeline below turns the expired context into
	// the normal timeout envelope.
	if s.queryDelay > 0 {
		s.delayMu.Lock()
		select {
		case <-time.After(s.queryDelay):
		case <-c.ctx.Done():
		}
		s.delayMu.Unlock()
	}

	resp, err := s.pipeline.Process(c.ctx, req)
	c.fileTrace(w)
	if err != nil {
		switch {
		case errors.Is(err, errEmptyQuery):
			s.queryError(w, envelope.ReasonEmptyQuery, c.id, "provide audio, text, or text+image")
		case errors.Is(err, errBadPrecision):
			s.queryError(w, envelope.ReasonBadPrecision, c.id, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.queryError(w, envelope.ReasonTimeout, c.id, "query deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client gone mid-pipeline; 499 (client closed request) keeps
			// the books balanced even though nobody reads the reply.
			s.queryError(w, envelope.ReasonCanceled, c.id, "request canceled")
		default:
			s.queryError(w, envelope.ReasonPipeline, c.id, err.Error())
		}
		return
	}
	s.observe(resp, c.id)

	w.Header().Set("Content-Type", "application/json")
	var body any = resp
	if r.URL.Query().Get("trace") == "1" {
		body = tracedResponse{Response: resp, Trace: c.trace}
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// observe feeds one served response into the Prometheus registry:
// end-to-end latency per kind, whose _count is the served count (with the
// request id retained as the bucket's exemplar, so tail buckets link to
// /debug/traces), and latency for the stages the query exercised — a
// text query has no ASR time, and zero-filling would drag the ASR tail
// toward the floor. The kernels inside each stage are timed where they
// run, in sirius_stage_kernel_seconds.
func (s *Server) observe(resp Response, reqID string) {
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

// encodePNG writes a vision.Image as an 8-bit grayscale PNG.
func encodePNG(w io.Writer, im *vision.Image) error {
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

// DecodePNG reads any PNG into a grayscale vision.Image. The header is
// read first, and an image over maxImagePixels is refused before its
// pixel buffer is allocated.
func DecodePNG(r io.Reader) (*vision.Image, error) {
	var head bytes.Buffer
	cfg, err := png.DecodeConfig(io.TeeReader(r, &head))
	if err != nil {
		return nil, err
	}
	if px := int64(cfg.Width) * int64(cfg.Height); px > maxImagePixels {
		return nil, fmt.Errorf("%dx%d image exceeds %d pixels", cfg.Width, cfg.Height, maxImagePixels)
	}
	src, err := png.Decode(io.MultiReader(&head, r))
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
		if err := encodePNG(&png, img); err != nil {
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
