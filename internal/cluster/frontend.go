package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"sirius/internal/envelope"
	"sirius/internal/telemetry"
)

// FrontendConfig holds the frontend's deployment options; sirius-frontend
// sets each one from a flag. The retry, hedge-trigger and breaker
// numbers are not options: they are the fixed constants below.
type FrontendConfig struct {
	// Hedge enables tail-cutting duplicate requests: when a primary
	// attempt outlives the kind's observed p95 (never less than
	// hedgeMinDelay), a second attempt goes to another backend, if the
	// pool has one, and the first response wins. The p95 is trusted once
	// hedgeWarmup queries of the kind have set it; before that no query
	// is hedged.
	Hedge bool

	CheckInterval time.Duration // active /readyz probe period (0 = no background checks)
}

// The frontend's fixed tail-cutting posture, the one every deployment
// runs (the sirius-frontend package comment states it).
const (
	maxRetries    = 2                      // extra attempts after the first failure
	baseBackoff   = 10 * time.Millisecond  // first retry delay (doubles per retry)
	maxBackoff    = 250 * time.Millisecond // backoff cap
	hedgeMinDelay = 20 * time.Millisecond  // floor under the p95 hedge trigger
	hedgeWarmup   = 32                     // queries of a kind before its p95 is trusted

	breakerThreshold = 3               // consecutive failures that open a backend's breaker
	breakerOpenFor   = 5 * time.Second // cool-off before the half-open probe

	attemptTimeout = 30 * time.Second // per-attempt HTTP timeout
	maxBodyBytes   = 32 << 20         // request and relayed response body cap

	// shardBudget is the per-shard deadline for scatter-gather search
	// fan-out (/v1/search): a shard that has not answered within it is
	// dropped from the merge and the response is tagged partial.
	// X-Sirius-Shard-Budget-Ms overrides it for one request.
	shardBudget = 250 * time.Millisecond
)

// DefaultFrontendConfig is the posture sirius-frontend starts from:
// hedging off (enable per deployment) and a health probe every 2 s.
func DefaultFrontendConfig() FrontendConfig {
	return FrontendConfig{
		Hedge:         false,
		CheckInterval: 2 * time.Second,
	}
}

// Frontend is the cluster's load balancer (the "front end" box of
// Figure 2): it accepts the same POST /v1/query as a sirius-server,
// classifies the query into a stage pool (asr/qa/imm), and dispatches
// it to a backend with retries, per-backend circuit breaking, and
// optional hedging. Its /metrics exposes per-backend latency and every
// retry/hedge/breaker decision; /backends is the operator's pool view.
type Frontend struct {
	cfg         FrontendConfig
	reg         *registry
	router      *router
	mux         *http.ServeMux
	client      *http.Client
	checkClient *http.Client
	traces      *telemetry.TraceLog
	slo         *telemetry.SLO
	stopChecks  func()

	mu  sync.Mutex // guards rng and stopChecks
	rng *rand.Rand // backoff jitter

	queries      *telemetry.CounterVec   // cluster_queries_total{kind}
	errsC        *telemetry.CounterVec   // cluster_query_errors_total{reason}
	retries      *telemetry.Counter      // cluster_retries_total
	hedges       *telemetry.Counter      // cluster_hedges_total
	hedgeWins    *telemetry.Counter      // cluster_hedge_wins_total
	breakerTrans *telemetry.CounterVec   // cluster_breaker_transitions_total{backend,to}
	backendReqs  *telemetry.CounterVec   // cluster_backend_requests_total{backend,outcome}
	backendLat   *telemetry.HistogramVec // cluster_backend_latency_seconds{backend}; each child is its Backend.latency
	queryLat     *telemetry.HistogramVec // cluster_query_latency_seconds{kind}

	shardSearches *telemetry.CounterVec // sirius_shard_searches_total{outcome}

	// streamClient relays /v1/stream sessions. It deliberately has no
	// client timeout — a session lasts as long as its audio, and the
	// deadline machinery (X-Sirius-Timeout-Ms, the backend's -timeout)
	// already bounds it — and is separate from the attempt client so a
	// long stream never trips attemptTimeout.
	streamClient *http.Client
	streams      *telemetry.CounterVec // cluster_streams_total{outcome}
}

// NewFrontend builds a frontend with an empty backend pool. Call
// AddBackend for static configuration, Start for background health
// checks, and serve it as an http.Handler.
func NewFrontend(cfg FrontendConfig) *Frontend {
	reg := newRegistry()
	m := telemetry.NewRegistry()
	f := &Frontend{
		cfg:          cfg,
		reg:          reg,
		router:       &router{reg: reg},
		mux:          http.NewServeMux(),
		client:       &http.Client{Timeout: attemptTimeout},
		checkClient:  &http.Client{Timeout: 2 * time.Second},
		traces:       telemetry.NewTraceLog(traceLogCapacity),
		rng:          rand.New(rand.NewSource(1)),
		queries:      m.NewCounterVec("cluster_queries_total", "Queries dispatched, by stage pool.", "kind"),
		errsC:        m.NewCounterVec("cluster_query_errors_total", "Queries the frontend could not serve, by failure class.", "reason"),
		retries:      m.NewCounter("cluster_retries_total", "Retry attempts launched after a failed attempt."),
		hedges:       m.NewCounter("cluster_hedges_total", "Hedged (duplicate) attempts launched to cut the tail."),
		hedgeWins:    m.NewCounter("cluster_hedge_wins_total", "Requests won by the hedged attempt."),
		breakerTrans: m.NewCounterVec("cluster_breaker_transitions_total", "Circuit breaker state transitions, by backend and new state.", "backend", "to"),
		backendReqs:  m.NewCounterVec("cluster_backend_requests_total", "Attempts per backend, by outcome (ok/5xx/shed/error/canceled).", "backend", "outcome"),
		backendLat:   m.NewHistogramVec("cluster_backend_latency_seconds", "Frontend-observed per-backend attempt latency (network included).", "backend"),
		queryLat:     m.NewHistogramVec("cluster_query_latency_seconds", "End-to-end frontend query latency, by stage pool.", "kind"),

		shardSearches: m.NewCounterVec("sirius_shard_searches_total", "Scatter-gather search queries, by outcome (full/partial/error).", "outcome"),

		streamClient: &http.Client{},
		streams:      m.NewCounterVec("cluster_streams_total", "Streaming ASR sessions relayed, by outcome (ok/no_backends/backend_failure/canceled).", "outcome"),
	}
	m.NewGaugeFunc("cluster_backends_ready", "Backends currently ready for traffic.", func() float64 {
		return float64(len(f.reg.readyAny()))
	})
	// The frontend tracks the same SLO shape as the backends, over its
	// own end-to-end (client-observed) latency.
	f.slo = telemetry.NewSLOFromVec(f.queryLat)
	f.slo.Register(m)
	f.mux.HandleFunc("/v1/query", f.handleQuery)
	f.mux.HandleFunc("/v1/search", f.handleSearch)
	f.mux.HandleFunc("/v1/stream", f.handleStream)
	f.mux.HandleFunc("/register", f.handleRegister)
	f.mux.HandleFunc("/deregister", f.handleDeregister)
	f.mux.HandleFunc("/backends", f.handleBackends)
	f.mux.HandleFunc("/loadstate", f.handleLoadState)
	telemetry.Mount(f.mux, telemetry.Ops{
		Metrics: m,
		// The frontend can serve only when at least one backend is ready.
		Ready: func() error {
			if len(f.reg.readyAny()) == 0 {
				return errNoReadyBackends
			}
			return nil
		},
		SLO:    f.slo,
		Traces: f.traces,
	})
	return f
}

// traceLogCapacity bounds /debug/traces: 64 requests of stitched
// waterfalls is plenty to inspect a latency incident.
const traceLogCapacity = 64

// errNoReadyBackends is the frontend's /readyz answer while no backend
// is ready.
var errNoReadyBackends = errors.New("no ready backends")

// readyAny returns the backends ready for any kind at all.
func (r *registry) readyAny() []*Backend {
	all := r.all()
	out := all[:0]
	for _, b := range all {
		if b.ready() {
			out = append(out, b)
		}
	}
	return out
}

// AddBackend registers a backend by URL with a fresh breaker wired to
// the transition counter, then probes it immediately so it can take
// traffic without waiting a full check interval.
func (f *Frontend) AddBackend(rawURL, kinds string) (*Backend, error) {
	return f.AddShardBackend(rawURL, kinds, 0, 0)
}

// AddShardBackend is AddBackend for search leaves: shard/shards record
// which partition of the corpus the backend holds (0/0 for non-leaf
// backends).
func (f *Frontend) AddShardBackend(rawURL, kinds string, shard, shards int) (*Backend, error) {
	if shards > 0 && (shard < 0 || shard >= shards) {
		return nil, fmt.Errorf("cluster: shard %d out of range for %d shards", shard, shards)
	}
	b, err := newBackend(rawURL, kinds, nil)
	if err != nil {
		return nil, err
	}
	b.setRole(b.kinds(), shard, shards)
	id := b.ID
	b.latency = f.backendLat.With(id)
	b.breaker = newBreaker(func(from, to breakerState) {
		f.breakerTrans.With(id, to.String()).Inc()
	})
	target := f.reg.add(b)
	// Probe even a re-registering backend: one that crashed and came
	// back keeps its registry entry but may be marked unhealthy, and
	// without this probe it would wait a full check interval (forever,
	// with checks disabled) before taking traffic again.
	f.reg.checkBackend(context.Background(), f.checkClient, target)
	return target, nil
}

// Start launches the periodic health-check loop (no-op when
// CheckInterval is 0). Stop undoes it. Both are safe to call
// concurrently.
func (f *Frontend) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.CheckInterval > 0 && f.stopChecks == nil {
		f.stopChecks = f.reg.startChecks(f.cfg.CheckInterval, f.checkClient)
	}
}

// Stop halts background health checking.
func (f *Frontend) Stop() {
	f.mu.Lock()
	stop := f.stopChecks
	f.stopChecks = nil
	f.mu.Unlock()
	if stop != nil {
		stop() // outside the lock: it blocks until the check loop exits
	}
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// classifyQuery maps a /v1/query body onto a stage pool by which fields
// it carries: a photo routes to the imm pool (the VIQ path), a recording
// to asr, plain text to qa. A body that is not a JSON query falls back
// to qa — the backend will reject it with a proper error envelope.
func classifyQuery(body []byte) string {
	var q struct {
		Audio json.RawMessage `json:"audio"`
		Image json.RawMessage `json:"image"`
	}
	switch {
	case json.Unmarshal(body, &q) != nil:
		return kindQA
	case jsonFieldPresent(q.Image):
		return kindIMM
	case jsonFieldPresent(q.Audio):
		return kindASR
	default:
		return kindQA
	}
}

// jsonFieldPresent reports whether a decoded JSON field carries actual
// content (present, not null, not an empty string).
func jsonFieldPresent(raw json.RawMessage) bool {
	s := strings.TrimSpace(string(raw))
	return s != "" && s != "null" && s != `""`
}

// attemptResult carries one backend attempt's outcome.
type attemptResult struct {
	backend     *Backend
	status      int
	contentType string
	body        []byte
	err         error
	hedged      bool
	latency     time.Duration
}

// ok means the client can be answered from this attempt: the backend
// responded and did not fail server-side. 5xx (a backend's deadline
// 503 included) and 429 admission sheds are retryable on another
// backend; other 4xx relays as-is — the request itself is bad and
// retrying elsewhere cannot fix it.
func (r *attemptResult) ok() bool {
	return r.err == nil && r.status < 500 && r.status != http.StatusTooManyRequests
}

// readBody reads a backend's reply, at most maxBodyBytes of it. A reply
// that declares its length within the cap is read into one buffer of
// that size; one that does not is read as it comes.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
}

// attempt forwards the buffered query to one backend and reports on
// results. It propagates X-Request-Id and the attempt span's context
// (X-Sirius-Trace) across the process boundary; the backend roots its
// trace under the attempt span and returns its span tree in a response
// header, which is grafted back in here — so the frontend's
// /debug/traces shows one stitched waterfall per request, retry and
// hedge losers included. It also feeds the breaker — except when the
// attempt lost a hedge race and was canceled, which says nothing about
// backend health.
func (f *Frontend) attempt(ctx context.Context, b *Backend, path string, body []byte, reqID, timeoutMs string, hedged bool, results chan<- *attemptResult) {
	name := "attempt " + b.ID
	if hedged {
		name = "hedge " + b.ID
	}
	spCtx, sp := telemetry.StartSpan(ctx, name)
	defer sp.End()

	start := time.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	res := &attemptResult{backend: b, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		results <- res
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	telemetry.InjectTraceContext(req.Header, spCtx)
	if timeoutMs != "" {
		// The client's per-query deadline rides along so the backend can
		// stop pipeline work, not just have the socket closed on it.
		req.Header.Set("X-Sirius-Timeout-Ms", timeoutMs)
	}
	var remoteSpans string
	resp, err := f.client.Do(req)
	if err != nil {
		res.err = err
	} else {
		res.status = resp.StatusCode
		res.contentType = resp.Header.Get("Content-Type")
		remoteSpans = resp.Header.Get(telemetry.TraceSpansHeader)
		res.body, res.err = readBody(resp)
		resp.Body.Close()
	}
	res.latency = time.Since(start)
	// Close the attempt span at its true duration, then stitch the
	// backend's span tree under it. Graft anchors on the attempt span's
	// own offsets, so the two processes' clocks never meet.
	sp.End()
	if remoteSpans != "" {
		if rs, derr := telemetry.DecodeSpans(remoteSpans); derr == nil {
			sp.Graft(rs)
		}
	}

	canceled := ctx.Err() != nil && res.err != nil
	outcome := "ok"
	switch {
	case canceled:
		outcome = "canceled"
	case res.err != nil:
		outcome = "error"
	case res.status == http.StatusTooManyRequests:
		outcome = "shed"
	case res.status >= 500:
		outcome = "5xx"
	}
	if canceled {
		// No verdict to record, but if this attempt held the half-open
		// probe slot it must give it back or the breaker wedges.
		b.breaker.cancelProbe()
	} else {
		// A 429 shed is retried elsewhere (not ok()) but is not a health
		// verdict: the backend is alive and explicitly pushing load away,
		// so it must not drive the breaker toward open.
		b.breaker.record(res.err == nil && res.status < 500)
		b.latency.Observe(res.latency)
	}
	f.backendReqs.With(b.ID, outcome).Inc()
	results <- res
}

// backoff returns the nth retry delay: exponential from baseBackoff,
// capped, with ±50% jitter so synchronized retry waves decorrelate.
func (f *Frontend) backoff(n int) time.Duration {
	d := baseBackoff << uint(n)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	f.mu.Lock()
	jitter := 0.5 + f.rng.Float64()
	f.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// hedgeDelay derives the hedge trigger from the kind's observed e2e
// latency: p95 with a floor of hedgeMinDelay, once hedgeWarmup
// observations exist. Hedging at p95 bounds extra load at ~5% of
// traffic while attacking exactly the tail the paper's §6 studies.
func (f *Frontend) hedgeDelay(kind string) (time.Duration, bool) {
	h := f.queryLat.With(kind)
	if h.Count() < hedgeWarmup {
		return 0, false
	}
	d := h.Quantile(0.95)
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	return d, true
}

// dispatch runs the attempt state machine for one query: a primary
// attempt, failure-triggered retries (bounded, backed off, jittered),
// and at most one hedge once the hedge delay elapses with the primary
// still in flight. The first successful attempt wins; losers are
// canceled via ctx when dispatch returns. A non-nil where restricts
// candidate backends (the scatter-gather aggregator pins each fan-out
// arm to one shard's replicas this way, inheriting the same retry/
// hedge/breaker machinery).
func (f *Frontend) dispatch(ctx context.Context, kind, path string, body []byte, reqID, timeoutMs string, where func(*Backend) bool) (*attemptResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan *attemptResult, maxRetries+2)
	outstanding := 0
	exclude := map[string]bool{}
	// A retry may reuse a tried backend when no other is left; a hedge
	// never lands on its own primary's backend.
	launch := func(hedged bool) error {
		b, err := f.router.pickWhere(kind, exclude, where, !hedged)
		if err != nil {
			return err
		}
		exclude[b.ID] = true
		outstanding++
		go f.attempt(ctx, b, path, body, reqID, timeoutMs, hedged, results)
		return nil
	}
	if err := launch(false); err != nil {
		return nil, err
	}

	var hedgeC <-chan time.Time
	if f.cfg.Hedge {
		if d, ok := f.hedgeDelay(kind); ok {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	retriesLeft := maxRetries
	var retryC <-chan time.Time
	var retryT *time.Timer
	defer func() {
		if retryT != nil {
			retryT.Stop()
		}
	}()
	backoffN := 0
	var lastFail *attemptResult
	for {
		select {
		case res := <-results:
			outstanding--
			if res.ok() {
				if res.hedged {
					f.hedgeWins.Inc()
				}
				return res, nil
			}
			lastFail = res
			if retriesLeft > 0 && retryC == nil {
				retryT = time.NewTimer(f.backoff(backoffN))
				backoffN++
				retryC = retryT.C
			} else if outstanding == 0 && retryC == nil {
				return lastFail, nil
			}
		case <-retryC:
			retryC = nil
			retriesLeft--
			// Count the retry only once launched — an exhausted pool
			// means no attempt actually went out.
			if err := launch(false); err == nil {
				f.retries.Inc()
			} else if outstanding == 0 {
				if lastFail != nil {
					return lastFail, nil
				}
				return nil, err
			}
		case <-hedgeC:
			hedgeC = nil
			if outstanding > 0 && launch(true) == nil { // pool exhausted → no hedge, primary races on
				f.hedges.Inc()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fail counts a failure the frontend itself originates and answers it
// with the same structured JSON error body the backends emit
// (internal/envelope). Backend error envelopes are relayed verbatim
// instead, so a client sees one error shape whichever tier rejected the
// query.
func (f *Frontend) fail(w http.ResponseWriter, reason, requestID, msg string) {
	f.errsC.With(reason).Inc()
	envelope.Write(w, reason, requestID, msg)
}

// begin is the request prologue /v1/query, /v1/stream and /v1/search
// share: adopt the caller's X-Request-Id or mint one, echo it, and
// require POST. When ok is false the request has been answered.
func (f *Frontend) begin(w http.ResponseWriter, r *http.Request) (reqID string, ok bool) {
	reqID = r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		f.fail(w, envelope.ReasonBadMethod, reqID, "POST required")
		return reqID, false
	}
	return reqID, true
}

// handleQuery is the frontend's /v1/query: buffer, classify into a pool,
// dispatch, relay. The backend path mirrors the one the client hit, so
// both tiers version together. The body must be buffered — retries and
// hedges replay it.
func (f *Frontend) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID, ok := f.begin(w, r)
	if !ok {
		return
	}
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		f.fail(w, envelope.ReasonBadBody, reqID, "reading body: "+err.Error())
		return
	}
	kind := classifyQuery(body)

	ctx := telemetry.ContextWithRequestID(r.Context(), reqID)
	ctx, tr := telemetry.StartTrace(ctx, "frontend "+kind)
	res, err := f.dispatch(ctx, kind, r.URL.Path, body, reqID, r.Header.Get("X-Sirius-Timeout-Ms"), nil)
	tr.Finish()
	f.traces.Add(tr)
	if err != nil {
		reason := envelope.ReasonDispatch
		if errors.Is(err, errNoBackends) {
			reason = envelope.ReasonNoBackends
		}
		f.fail(w, reason, reqID, err.Error())
		return
	}
	switch {
	case res.ok():
		f.queries.With(kind).Inc()
		if res.status == http.StatusOK {
			f.queryLat.With(kind).ObserveTrace(time.Since(start), reqID)
		}
	case res.err != nil:
		f.fail(w, envelope.ReasonBackendFailure, reqID, "all backends failed: "+res.err.Error())
		return
	case res.status == http.StatusTooManyRequests:
		// Every live backend shed this query (each 429 attempt was
		// retried on another): count it as overload, not backend failure.
		f.errsC.With(envelope.ReasonOverloaded).Inc()
	default:
		f.errsC.With(envelope.ReasonBackendFailure).Inc()
	}
	// The backend's reply relays verbatim, status and all — a failure
	// body (the error envelope included) as much as an answer.
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.Header().Set("X-Sirius-Backend", res.backend.ID)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// flushWriter flushes after every write so relayed stream events reach
// the client as they happen instead of sitting in the response buffer.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleStream relays a /v1/stream session to one asr-pool backend.
// Unlike /v1/query there are no retries, hedges, or replays: a session
// is stateful (the backend accumulates decoder state chunk by chunk),
// so routing is sticky — pick a backend once, pin the whole session to
// it, and surface any mid-session failure to the client, who restarts
// the stream. The request body is NOT buffered; chunks flow through as
// they arrive, and events flow back as the backend emits them.
func (f *Frontend) handleStream(w http.ResponseWriter, r *http.Request) {
	reqID, ok := f.begin(w, r)
	if !ok {
		return
	}
	b, err := f.router.pickWhere(kindASR, nil, nil, false)
	if err != nil {
		f.streams.With("no_backends").Inc()
		f.fail(w, envelope.ReasonNoBackends, reqID, err.Error())
		return
	}

	ctx := telemetry.ContextWithRequestID(r.Context(), reqID)
	ctx, tr := telemetry.StartTrace(ctx, "frontend stream")
	defer func() {
		tr.Finish()
		f.traces.Add(tr)
	}()
	spCtx, sp := telemetry.StartSpan(ctx, "stream "+b.ID)
	defer sp.End()

	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/v1/stream", body)
	if err != nil {
		f.streams.With("backend_failure").Inc()
		f.fail(w, envelope.ReasonBackendFailure, reqID, err.Error())
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	req.Header.Set("X-Request-Id", reqID)
	telemetry.InjectTraceContext(req.Header, spCtx)
	if ms := r.Header.Get("X-Sirius-Timeout-Ms"); ms != "" {
		req.Header.Set("X-Sirius-Timeout-Ms", ms)
	}

	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := f.streamClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client hung up before the backend answered, which says
			// nothing about the backend: canceled, as attempt counts it.
			b.breaker.cancelProbe()
			f.backendReqs.With(b.ID, "canceled").Inc()
			f.streams.With("canceled").Inc()
			f.fail(w, envelope.ReasonCanceled, reqID, "stream dispatch: "+err.Error())
			return
		}
		b.breaker.record(false)
		f.backendReqs.With(b.ID, "error").Inc()
		f.streams.With("backend_failure").Inc()
		f.fail(w, envelope.ReasonBackendFailure, reqID, "stream dispatch: "+err.Error())
		return
	}
	defer resp.Body.Close()
	// A shed (429) or 5xx before the event stream starts is a normal
	// envelope relay; only 200 begins a session. Sheds are not breaker
	// verdicts (the backend is alive and pushing load away).
	b.breaker.record(resp.StatusCode < 500)
	if resp.StatusCode != http.StatusOK {
		outcome := "5xx"
		if resp.StatusCode == http.StatusTooManyRequests {
			outcome = "shed"
		}
		f.backendReqs.With(b.ID, outcome).Inc()
		f.streams.With("backend_failure").Inc()
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Header().Set("X-Sirius-Backend", b.ID)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, io.LimitReader(resp.Body, maxBodyBytes))
		return
	}
	f.backendReqs.With(b.ID, "ok").Inc()

	// Relaying events while the client is still uploading chunks needs
	// full-duplex on this hop too.
	_ = http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Sirius-Backend", b.ID)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	// The session is not an attempt: it lasts as long as its audio, and
	// the attempt histogram is the autoscaler's service-time input.
	_, copyErr := io.Copy(flushWriter{w: w, f: flusher}, resp.Body)
	if copyErr != nil {
		// The client hanging up mid-relay cancels our backend request
		// too; that is the client's doing, not the backend's.
		if r.Context().Err() != nil {
			f.streams.With("canceled").Inc()
		} else {
			f.streams.With("backend_failure").Inc()
		}
		return
	}
	f.queries.With(kindASR).Inc()
	f.streams.With("ok").Inc()
}

// handleRegister adds the announcing backend to the pool and probes it
// right away — a freshly booted backend takes traffic within one RTT.
func (f *Frontend) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg Registration
	if !decodeRegistration(w, r, &reg) {
		return
	}
	b, err := f.AddShardBackend(reg.URL, reg.Kinds, reg.Shard, reg.Shards)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"id": b.ID})
}

// handleDeregister removes a backend (the drain path: the backend
// withdraws before closing its listener).
func (f *Frontend) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var reg Registration
	if !decodeRegistration(w, r, &reg) {
		return
	}
	b, err := newBackend(reg.URL, "", nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	removed := f.reg.remove(b.ID)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]bool{"removed": removed})
}

func decodeRegistration(w http.ResponseWriter, r *http.Request, reg *Registration) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(reg); err != nil {
		http.Error(w, "bad registration: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleBackends serves the operator's pool view.
func (f *Frontend) handleBackends(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(f.reg.status())
}
