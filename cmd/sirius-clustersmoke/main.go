// Command sirius-clustersmoke is the CI gate for the serving tier: it
// spawns a real 3-process cluster (1 sirius-frontend + 2 sirius-server
// backends) on loopback ports, waits for registration and readiness,
// issues text queries through the frontend's /v1/query, asserts that an
// empty query and a multipart body (the one body encoding is JSON) each
// relay the backend's structured error envelope, and asserts that
// /metrics shows both backends serving. Backend 2 runs under -max-inflight 1, and the
// smoke then exercises the request-lifecycle machinery against it
// directly: a voice query with a 1 ms X-Sirius-Timeout-Ms must come
// back as the 503 "timeout" envelope, a concurrent voice burst must
// shed with the 429 "overloaded" envelope plus Retry-After, and its
// /metrics must show sirius_query_errors_total{reason="timeout"} and
// {reason="overloaded"} advancing.
//
// The streaming front door is smoked next: the same synthesized
// utterance goes through the frontend once as a one-shot /v1/query and
// once as a chunked /v1/stream session; the session must emit at least
// one stabilized partial whose frame count is strictly before the
// final's (proof the decode was incremental), the final transcript
// must equal the one-shot's, and cluster_streams_total /
// sirius_stream_sessions_total must go positive on their tiers. Then a
// voice query asking for "precision":"int8" — which the GMM backends
// have no kernel for — must come back through the frontend as the
// backend's 400 "bad_precision" envelope, relayed verbatim.
//
// The smoke then stands up the sharded search tier against the same
// frontend: two sirius-server leaves (-shard 0/2 and 1/2) register as
// kind search, /v1/search scatter-gather must match the unsharded
// index's top-10 exactly (same documents, order, and scores), and after
// SIGTERMing shard 1 and replacing it with a -shard-delay-stalled leaf,
// a query under a 250 ms shard budget must still answer 200 with
// partial:true, shard 0's documents only, and a positive
// sirius_shard_searches_total{outcome="partial"} on a lint-clean
// /metrics.
//
// A churn-under-load phase closes the run: a second, empty frontend
// comes up with a sirius-autoscaler owning its whole backend pool
// (replicas pinned to a known 25 q/s capacity via -query-delay 40ms).
// The smoke first holds a light steady load until the controller's
// dcsim-predicted p99, planned on the autoscaler's fixed 512-request
// simulated trace, lands within 2 histogram buckets (2×) of the
// frontend's measured p99, then ramps the offered load ~10× (4 → 40
// q/s): the pool must scale out past one replica without exceeding its
// max of 3, with zero client-visible 5xx, and once the ramp ends it
// must drain back to the min of 1 — with both up and down decisions
// counted on a lint-clean autoscaler /metrics.
//
// Every kind of process the smoke runs — frontend, backend, leaf and
// autoscaler — must answer the operational routes all binaries share:
// /healthz, /metrics and /debug/pprof/.
//
// Everything runs under a fixed 240 s deadline — on timeout the
// processes are killed and the gate fails rather than hangs. verify.sh
// runs this after the unit tests.
//
// Usage:
//
//	sirius-clustersmoke -server-bin ./sirius-server -frontend-bin ./sirius-frontend \
//	    -autoscaler-bin ./sirius-autoscaler
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sirius/internal/asr"
	"sirius/internal/cluster"
	"sirius/internal/envelope"
	"sirius/internal/kb"
	"sirius/internal/loadgen"
	"sirius/internal/sirius"
	"sirius/internal/telemetry"
)

// claimedPorts remembers every port freePort has already handed out:
// once a probe listener closes, the kernel is free to return the same
// port to the next probe, and two cluster members racing for one port
// makes the smoke fail in confusing ways. Accessed from run() only.
var claimedPorts = make(map[int]bool)

// freePort asks the kernel for an unused loopback port, never
// repeating one within this process. There is still a small window
// before the subprocess binds it, but on a loopback-only CI host that
// race is negligible.
func freePort() (int, error) {
	for i := 0; i < 32; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if !claimedPorts[port] {
			claimedPorts[port] = true
			return port, nil
		}
	}
	return 0, fmt.Errorf("freePort: kernel kept returning already-claimed ports")
}

// proc is one spawned cluster member with its captured output.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
	mu   sync.Mutex
}

func (p *proc) start(ctx context.Context, bin string, args ...string) error {
	p.cmd = exec.CommandContext(ctx, bin, args...)
	p.cmd.Stdout = &lockedWriter{p: p}
	p.cmd.Stderr = &lockedWriter{p: p}
	// Deliver SIGTERM (graceful drain) rather than SIGKILL when the
	// context deadline fires, and escalate if drain hangs.
	p.cmd.Cancel = func() error { return p.cmd.Process.Signal(syscall.SIGTERM) }
	p.cmd.WaitDelay = 10 * time.Second
	return p.cmd.Start()
}

func (p *proc) stop() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	_ = p.cmd.Wait()
}

func (p *proc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

type lockedWriter struct{ p *proc }

func (w *lockedWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return w.p.out.Write(b)
}

// smoke is the run's HTTP side: every exchange is bounded by the run's
// deadline and read whole.
type smoke struct {
	ctx    context.Context
	client *http.Client
}

// reply is one exchange's outcome.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request, with header given as name, value pairs.
func (s smoke) do(method, url string, body []byte, header ...string) (reply, error) {
	req, err := http.NewRequestWithContext(s.ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: payload, header: resp.Header}, err
}

// post sends body as JSON, plus any extra header pairs.
func (s smoke) post(url string, body []byte, header ...string) (reply, error) {
	return s.do(http.MethodPost, url, body, append([]string{"Content-Type", "application/json"}, header...)...)
}

func (s smoke) get(url string) (reply, error) { return s.do(http.MethodGet, url, nil) }

// metrics scrapes base's /metrics exposition.
func (s smoke) metrics(base string) (string, error) {
	r, err := s.get(base + "/metrics")
	return string(r.body), err
}

// surface checks that base answers 200 on the operational routes every
// binary mounts through telemetry.Mount.
func (s smoke) surface(name, base string) error {
	for _, path := range []string{"/healthz", "/metrics", "/debug/pprof/"} {
		r, err := s.get(base + path)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, path, err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", name, path, r.status)
		}
	}
	log.Printf("%s answers /healthz, /metrics and /debug/pprof/", name)
	return nil
}

// query builds a /v1/query body.
func query(samples []float64, text, precision string) []byte {
	body, _, err := sirius.BuildJSONQueryPrecision(samples, nil, text, precision)
	if err != nil {
		panic(err) // every writer behind it is a bytes.Buffer
	}
	return body.Bytes()
}

// waitHTTP polls url until it returns wantStatus or the context ends.
func (s smoke) waitHTTP(url string, wantStatus int) error {
	for {
		r, err := s.get(url)
		if err == nil && r.status == wantStatus {
			return nil
		}
		select {
		case <-s.ctx.Done():
			if err != nil {
				return fmt.Errorf("waiting for %s: %w (last error: %v)", url, s.ctx.Err(), err)
			}
			return fmt.Errorf("waiting for %s: %w", url, s.ctx.Err())
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// waitBackendsReady polls the frontend's /backends until at least n of
// the backends it lists are ready (registered and passing the frontend's
// own health probe) and match, or the context ends. A backend answering
// its own /readyz says nothing about the frontend's view of it.
func (s smoke) waitBackendsReady(frontURL string, match func(cluster.BackendStatus) bool, n int) error {
	for {
		r, err := s.get(frontURL + "/backends")
		if err == nil {
			var sts []cluster.BackendStatus
			_ = json.Unmarshal(r.body, &sts) // an unreadable listing counts no backend
			ready := 0
			for _, st := range sts {
				if st.Ready && match(st) {
					ready++
				}
			}
			if ready >= n {
				return nil
			}
		}
		select {
		case <-s.ctx.Done():
			return fmt.Errorf("waiting for %d ready backends at %s: %w;\n--- /backends ---\n%s", n, frontURL, s.ctx.Err(), r.body)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// The smoke's fixed shape: the hard deadline for the whole run (the
// churn phase spends most of it), and the text queries issued through
// the frontend.
const (
	smokeDeadline = 240 * time.Second
	textQueries   = 12
)

func run() (err error) {
	serverBin := flag.String("server-bin", "", "path to the sirius-server binary")
	frontendBin := flag.String("frontend-bin", "", "path to the sirius-frontend binary")
	autoscalerBin := flag.String("autoscaler-bin", "", "path to the sirius-autoscaler binary")
	flag.Parse()
	if *serverBin == "" || *frontendBin == "" || *autoscalerBin == "" {
		return fmt.Errorf("-server-bin, -frontend-bin and -autoscaler-bin are all required")
	}

	ctx, cancel := context.WithTimeout(context.Background(), smokeDeadline)
	defer cancel()
	h := smoke{ctx: ctx, client: &http.Client{Timeout: 10 * time.Second}}

	fPort, err := freePort()
	if err != nil {
		return err
	}
	b1Port, err := freePort()
	if err != nil {
		return err
	}
	b2Port, err := freePort()
	if err != nil {
		return err
	}
	frontURL := fmt.Sprintf("http://127.0.0.1:%d", fPort)

	front := &proc{name: "frontend"}
	back1 := &proc{name: "backend1"}
	back2 := &proc{name: "backend2"}
	procs := []*proc{front, back1, back2}
	defer func() {
		for _, p := range procs {
			p.stop()
		}
		if err != nil {
			for _, p := range procs {
				fmt.Fprintf(os.Stderr, "--- %s output ---\n%s\n", p.name, p.dump())
			}
		}
	}()

	if err := front.start(ctx, *frontendBin, "-addr", fmt.Sprintf("127.0.0.1:%d", fPort)); err != nil {
		return fmt.Errorf("start frontend: %w", err)
	}
	for i, p := range []*proc{back1, back2} {
		port := []int{b1Port, b2Port}[i]
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-frontend", frontURL,
		}
		// Backend 2 doubles as the admission-control fixture: one slot,
		// so the shed/timeout smoke below can saturate it on demand.
		if p == back2 {
			args = append(args, "-max-inflight", "1")
		}
		if err := p.start(ctx, *serverBin, args...); err != nil {
			return fmt.Errorf("start %s: %w", p.name, err)
		}
	}

	// The frontend's readiness flips true once one backend has registered
	// and passed its active health probe, and a backend's own /readyz says
	// only that it has booted: round-robin has two targets when the
	// frontend lists both as ready, so that is what to wait for. Without
	// it the text queries below can all land on the first backend and the
	// "both served" check fail.
	if err := h.waitBackendsReady(frontURL, func(st cluster.BackendStatus) bool {
		return strings.HasSuffix(st.URL, fmt.Sprintf(":%d", b1Port)) || strings.HasSuffix(st.URL, fmt.Sprintf(":%d", b2Port))
	}, 2); err != nil {
		return err
	}
	log.Printf("cluster up: frontend :%d, backends :%d :%d", fPort, b1Port, b2Port)

	texts := []string{
		"what is the capital of france",
		"call mom",
		"what is the capital of spain",
		"set my alarm for eight",
	}
	// Every text query proxies end to end: through the frontend to a
	// backend, and back as a JSON answer.
	for i := 0; i < textQueries; i++ {
		r, err := h.post(frontURL+"/v1/query", query(nil, texts[i%len(texts)], ""))
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("query %d: status %d; body %s", i, r.status, r.body)
		}
		var ans struct {
			Answer string `json:"answer"`
		}
		if err := json.Unmarshal(r.body, &ans); err != nil {
			return fmt.Errorf("query %d: bad response %q: %w", i, r.body, err)
		}
		if i == 0 {
			log.Printf("/v1/query answered %q", ans.Answer)
		}
	}

	// An empty query through the frontend must come back as the
	// backend's structured error envelope, relayed verbatim.
	{
		r, err := h.post(frontURL+"/v1/query", query(nil, "", ""))
		if err != nil {
			return fmt.Errorf("empty query: %w", err)
		}
		if r.status != http.StatusBadRequest {
			return fmt.Errorf("empty query: status %d, want 400; body %s", r.status, r.body)
		}
		var env envelope.Envelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			return fmt.Errorf("empty query: not an error envelope %q: %w", r.body, err)
		}
		if env.Code != http.StatusBadRequest || env.Reason != "empty_query" || env.RequestID == "" {
			return fmt.Errorf("empty query: bad envelope %+v", env)
		}
		if got := r.header.Get("X-Request-Id"); got != env.RequestID {
			return fmt.Errorf("empty query: envelope request_id %q does not match X-Request-Id %q", env.RequestID, got)
		}
		log.Printf("error envelope relayed through the frontend: %+v", env)
	}

	// JSON is the one body encoding: a multipart form through the
	// frontend reaches a backend, which answers 400 bad_json, and that
	// envelope relays verbatim — the status, reason and message the
	// backend gives when asked directly, with the relaying backend named.
	{
		var form bytes.Buffer
		mw := multipart.NewWriter(&form)
		if err := mw.WriteField("text", "what is the capital of france"); err != nil {
			return err
		}
		mw.Close()
		postForm := func(base string) (reply, envelope.Envelope, error) {
			var env envelope.Envelope
			r, err := h.do(http.MethodPost, base+"/v1/query", form.Bytes(), "Content-Type", mw.FormDataContentType())
			if err == nil {
				err = json.Unmarshal(r.body, &env)
			}
			return r, env, err
		}
		r, env, err := postForm(frontURL)
		if err != nil {
			return fmt.Errorf("multipart query: %w (body %s)", err, r.body)
		}
		if r.status != http.StatusBadRequest || env.Code != http.StatusBadRequest || env.Reason != "bad_json" {
			return fmt.Errorf("multipart query: status %d envelope %+v, want 400 bad_json", r.status, env)
		}
		if env.RequestID == "" || env.RequestID != r.header.Get("X-Request-Id") || r.header.Get("X-Sirius-Backend") == "" {
			return fmt.Errorf("multipart query: envelope %+v not relayed from a backend (X-Request-Id %q, X-Sirius-Backend %q)",
				env, r.header.Get("X-Request-Id"), r.header.Get("X-Sirius-Backend"))
		}
		dr, direct, err := postForm(fmt.Sprintf("http://127.0.0.1:%d", b1Port))
		if err != nil || dr.status != r.status || direct.Code != env.Code || direct.Reason != env.Reason || direct.Message != env.Message {
			return fmt.Errorf("multipart query: relayed envelope %d %+v differs from the backend's own %d %s (%v)", r.status, env, dr.status, dr.body, err)
		}
		log.Printf("multipart body relayed from %s as the backend's 400 bad_json envelope", r.header.Get("X-Sirius-Backend"))
	}

	metrics, err := h.metrics(frontURL)
	if err != nil {
		return err
	}
	for _, port := range []int{b1Port, b2Port} {
		want := fmt.Sprintf(`cluster_backend_requests_total{backend="127.0.0.1:%d",outcome="ok"}`, port)
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("frontend /metrics missing %q — backend :%d never served;\n--- metrics ---\n%s", want, port, metrics)
		}
	}
	log.Printf("both backends served traffic")
	for name, base := range map[string]string{"frontend": frontURL, "backend": fmt.Sprintf("http://127.0.0.1:%d", b1Port)} {
		if err := h.surface(name, base); err != nil {
			return err
		}
	}

	// --- Observability smoke: stitching, breakdown, exemplars, SLO ---
	// One more query through the frontend, keeping its request id, must
	// yield a single stitched trace on the frontend's /debug/traces:
	// the frontend's own spans plus the backend's grafted (remote) span
	// tree, under the same request id, with monotonically non-negative
	// offsets (the stitch is anchored on span offsets, never wall
	// clocks, so inter-process skew must not show through).
	{
		r, err := h.post(frontURL+"/v1/query", query(nil, "what is the capital of france", ""))
		if err != nil {
			return fmt.Errorf("traced query: %w", err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("traced query: status %d", r.status)
		}
		reqID := r.header.Get("X-Request-Id")
		if reqID == "" {
			return fmt.Errorf("traced query: response missing X-Request-Id")
		}
		lookup, err := h.get(frontURL + "/debug/traces?id=" + reqID)
		if err != nil {
			return err
		}
		tpayload := lookup.body
		if lookup.status != http.StatusOK {
			return fmt.Errorf("trace lookup %s: status %d; body %s", reqID, lookup.status, tpayload)
		}
		var tr telemetry.Trace
		if err := json.Unmarshal(tpayload, &tr); err != nil {
			return fmt.Errorf("trace lookup %s: bad JSON %q: %w", reqID, tpayload, err)
		}
		if tr.ID != reqID || tr.Root == nil {
			return fmt.Errorf("trace lookup %s: wrong trace (id %q, root %v)", reqID, tr.ID, tr.Root != nil)
		}
		var local, remote int
		var walk func(sp *telemetry.Span, parentOff time.Duration) error
		walk = func(sp *telemetry.Span, parentOff time.Duration) error {
			if sp.Offset < parentOff {
				return fmt.Errorf("span %q offset %v precedes its parent's %v", sp.Name, sp.Offset, parentOff)
			}
			if sp.Remote {
				remote++
			} else {
				local++
			}
			for _, c := range sp.Children {
				if err := walk(c, sp.Offset); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(tr.Root, 0); err != nil {
			return fmt.Errorf("stitched trace %s: %w;\n--- trace ---\n%s", reqID, err, tpayload)
		}
		if local == 0 || remote == 0 {
			return fmt.Errorf("stitched trace %s: want both tiers' spans, got %d local / %d remote;\n--- trace ---\n%s",
				reqID, local, remote, tpayload)
		}
		log.Printf("stitched trace %s: %d frontend spans + %d backend spans, offsets monotone", reqID, local, remote)
	}

	// The measured cycle accounting must show where those queries spent
	// their time: at least one backend's /debug/breakdown reports a
	// nonzero total with a nonzero-share stage (text QA queries land in
	// stage=qa).
	{
		sawWork := false
		for _, port := range []int{b1Port, b2Port} {
			r, err := h.get(fmt.Sprintf("http://127.0.0.1:%d/debug/breakdown", port))
			if err != nil {
				return err
			}
			if r.status != http.StatusOK {
				return fmt.Errorf("backend :%d /debug/breakdown: status %d", port, r.status)
			}
			var rep telemetry.BreakdownReport
			if err := json.Unmarshal(r.body, &rep); err != nil {
				return fmt.Errorf("backend :%d /debug/breakdown: bad JSON %q: %w", port, r.body, err)
			}
			for _, st := range rep.Stages {
				if rep.TotalSeconds > 0 && st.Share > 0 && len(st.Kernels) > 0 {
					sawWork = true
				}
			}
		}
		if !sawWork {
			return fmt.Errorf("no backend /debug/breakdown reported a nonzero measured stage share")
		}
		log.Printf("/debug/breakdown reports nonzero measured stage shares")
	}

	// The frontend's exposition must carry at least one OpenMetrics
	// exemplar (a slow bucket pointing at a trace id) and the
	// sirius_slo_* gauges, and every tier's scrape must lint clean.
	{
		fmetrics, err := h.metrics(frontURL)
		if err != nil {
			return err
		}
		if !strings.Contains(fmetrics, `# {trace_id="`) {
			return fmt.Errorf("frontend /metrics has no OpenMetrics exemplar;\n--- metrics ---\n%s", fmetrics)
		}
		for _, name := range []string{"sirius_slo_target_seconds", "sirius_slo_objective_ratio", "sirius_slo_burn_rate"} {
			if !strings.Contains(fmetrics, name) {
				return fmt.Errorf("frontend /metrics missing %s;\n--- metrics ---\n%s", name, fmetrics)
			}
		}
		for _, target := range []string{
			frontURL,
			fmt.Sprintf("http://127.0.0.1:%d", b1Port),
			fmt.Sprintf("http://127.0.0.1:%d", b2Port),
		} {
			mtext, err := h.metrics(target)
			if err != nil {
				return err
			}
			if err := telemetry.LintPrometheus(mtext); err != nil {
				return fmt.Errorf("%s/metrics fails lint: %w", target, err)
			}
		}
		log.Printf("exemplars + sirius_slo_* present; all three tiers' /metrics lint clean")
	}

	// --- Request-lifecycle smoke against backend 2 (-max-inflight 1) ---
	// Voice queries are the slow path (a full Viterbi decode), which
	// makes both checks deterministic: a 1 ms budget cannot possibly
	// cover a decode, and a concurrent burst is guaranteed to overlap in
	// the single admission slot.
	b2URL := fmt.Sprintf("http://127.0.0.1:%d", b2Port)
	lex, _ := kb.BuildLexicon()
	samples, err := asr.SynthesizeText(lex, "what is the capital of france", 7)
	if err != nil {
		return err
	}
	voice := query(samples, "", "")

	// A voice query carrying a 1 ms budget must be aborted mid-pipeline
	// and answered with the 503 "timeout" envelope.
	{
		r, err := h.post(b2URL+"/v1/query", voice, "X-Sirius-Timeout-Ms", "1")
		if err != nil {
			return fmt.Errorf("deadline query: %w", err)
		}
		if r.status != http.StatusServiceUnavailable {
			return fmt.Errorf("deadline query: status %d, want 503; body %s", r.status, r.body)
		}
		var env envelope.Envelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			return fmt.Errorf("deadline query: not an error envelope %q: %w", r.body, err)
		}
		if env.Code != http.StatusServiceUnavailable || env.Reason != "timeout" {
			return fmt.Errorf("deadline query: bad envelope %+v", env)
		}
		log.Printf("1 ms deadline aborted the decode with the 503 timeout envelope")
	}

	// Saturate the single admission slot: of a concurrent voice burst at
	// most one request is admitted, so at least one sibling must be shed
	// with the 429 "overloaded" envelope and a Retry-After hint. Retried
	// a few times in case scheduling staggers the burst enough for the
	// admitted decode to finish between arrivals.
	shedSeen := false
	for attempt := 0; attempt < 5 && !shedSeen; attempt++ {
		const burst = 4
		type result struct {
			reply
			err error
		}
		results := make(chan result, burst)
		for i := 0; i < burst; i++ {
			go func() {
				r, err := h.post(b2URL+"/v1/query", voice)
				results <- result{r, err}
			}()
		}
		for i := 0; i < burst; i++ {
			r := <-results
			if r.err != nil {
				return fmt.Errorf("shed burst: %w", r.err)
			}
			if r.status != http.StatusTooManyRequests {
				continue
			}
			var env envelope.Envelope
			if err := json.Unmarshal(r.body, &env); err != nil {
				return fmt.Errorf("shed burst: 429 without an envelope %q: %w", r.body, err)
			}
			if env.Code != http.StatusTooManyRequests || env.Reason != "overloaded" {
				return fmt.Errorf("shed burst: bad envelope %+v", env)
			}
			if r.header.Get("Retry-After") == "" {
				return fmt.Errorf("shed burst: 429 reply missing Retry-After")
			}
			shedSeen = true
		}
	}
	if !shedSeen {
		return fmt.Errorf("shed smoke: no 429 from backend2 across 5 concurrent voice bursts")
	}
	log.Printf("admission control shed the burst with the 429 overloaded envelope")

	// Both lifecycle counters must have advanced on backend 2.
	b2Metrics, err := h.metrics(b2URL)
	if err != nil {
		return err
	}
	for _, name := range []string{`sirius_query_errors_total{reason="timeout"}`, `sirius_query_errors_total{reason="overloaded"}`} {
		if !metricPositive(b2Metrics, name) {
			return fmt.Errorf("backend2 /metrics: %s not positive;\n--- metrics ---\n%s", name, b2Metrics)
		}
	}
	log.Printf("sirius_query_errors_total timeout and overloaded advanced")

	// --- Streaming ASR smoke through the frontend ---
	// The same recording goes through both voice front doors: one-shot
	// as a /v1/query WAV body, and incrementally as a chunked /v1/stream
	// session relayed through the frontend to one sticky asr backend.
	// The session must surface a stabilized partial while audio is still
	// arriving (partial frames strictly before the final frame count)
	// and its final transcript must be identical to the one-shot path —
	// the chunked front-end and incremental decoder are bit-exact, so
	// any divergence is a real serving bug.
	{
		streamText := "set my alarm for eight"
		streamSamples, err := asr.SynthesizeText(lex, streamText, 11)
		if err != nil {
			return err
		}
		r, err := h.post(frontURL+"/v1/query", query(streamSamples, "", ""))
		if err != nil {
			return fmt.Errorf("one-shot voice query: %w", err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("one-shot voice query: status %d; body %s", r.status, r.body)
		}
		var oneShot struct {
			Transcript string `json:"transcript"`
		}
		if err := json.Unmarshal(r.body, &oneShot); err != nil {
			return fmt.Errorf("one-shot voice query: bad response %q: %w", r.body, err)
		}
		if oneShot.Transcript == "" {
			return fmt.Errorf("one-shot voice query: empty transcript; body %s", r.body)
		}

		var partials []sirius.StreamEvent
		final, err := sirius.StreamSamples(ctx, h.client, frontURL+"/v1/stream", streamSamples, 1600, nil, func(ev sirius.StreamEvent) {
			if ev.Type == "partial" {
				partials = append(partials, ev)
			}
		})
		if err != nil {
			return fmt.Errorf("streamed voice query: %w", err)
		}
		if final.Type != "final" {
			return fmt.Errorf("streamed voice query: terminal event %+v", final)
		}
		if final.Text != oneShot.Transcript {
			return fmt.Errorf("streamed transcript %q differs from one-shot %q", final.Text, oneShot.Transcript)
		}
		if len(partials) == 0 {
			return fmt.Errorf("streamed voice query: no stable partial before end of audio")
		}
		for _, p := range partials {
			if p.Text == "" || p.Frames <= 0 || p.Frames >= final.Frames {
				return fmt.Errorf("streamed voice query: partial %+v not strictly before the final (%d frames)", p, final.Frames)
			}
		}
		log.Printf("streamed /v1/stream: %d partials before end-of-audio, final %q == one-shot transcript", len(partials), final.Text)

		// The session must show on both tiers' expositions: the relay
		// counter on the frontend, the session counter on whichever
		// backend served it. Both tiers finish their accounting just
		// after the client reads the final event, so poll briefly.
		relayed, served := false, false
		for i := 0; i < 40 && !(relayed && served); i++ {
			if !relayed {
				mtext, err := h.metrics(frontURL)
				if err != nil {
					return err
				}
				relayed = metricPositive(mtext, `cluster_streams_total{outcome="ok"}`)
			}
			for _, port := range []int{b1Port, b2Port} {
				if served {
					break
				}
				btext, err := h.metrics(fmt.Sprintf("http://127.0.0.1:%d", port))
				if err != nil {
					return err
				}
				served = metricPositive(btext, `sirius_stream_sessions_total{outcome="ok"}`)
			}
			if !(relayed && served) {
				time.Sleep(50 * time.Millisecond)
			}
		}
		if !relayed {
			return fmt.Errorf("frontend /metrics: cluster_streams_total{outcome=\"ok\"} never went positive")
		}
		if !served {
			return fmt.Errorf("no backend /metrics shows sirius_stream_sessions_total{outcome=\"ok\"} > 0")
		}
		log.Printf("stream session visible on both tiers' /metrics")
	}

	// --- Precision smoke through the frontend ---
	// The backends run the GMM engine, whose bank has no int8 kernel. The
	// same recording goes through /v1/query once at each precision: fp64
	// must answer labeled precision:"fp64", and int8 must come back as the
	// backend's 400 "bad_precision" envelope relayed verbatim — the
	// status, reason and message a backend gives when asked directly, the
	// client's request id, the relaying backend named in X-Sirius-Backend —
	// and counted on that backend's /metrics. (The DNN's int8 path is
	// pinned by TestInt8TranscriptParity and the voice_dnn_i8 workload.)
	{
		qSamples, err := asr.SynthesizeText(lex, "call mom", 13)
		if err != nil {
			return err
		}
		postPrec := func(base, prec string) (reply, error) {
			r, err := h.post(base+"/v1/query", query(qSamples, "", prec))
			if err != nil {
				return r, fmt.Errorf("precision %q query: %w", prec, err)
			}
			return r, nil
		}
		r, err := postPrec(frontURL, "fp64")
		if err != nil {
			return err
		}
		var fp sirius.Response
		if err := json.Unmarshal(r.body, &fp); r.status != http.StatusOK || err != nil || fp.Precision != "fp64" {
			return fmt.Errorf("fp64 voice query: status %d, want 200 labeled fp64; body %s", r.status, r.body)
		}

		r, err = postPrec(frontURL, "int8")
		if err != nil {
			return err
		}
		var env envelope.Envelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			return fmt.Errorf("int8 voice query: status %d, not an error envelope %q: %w", r.status, r.body, err)
		}
		if r.status != http.StatusBadRequest || env.Code != http.StatusBadRequest || env.Reason != "bad_precision" {
			return fmt.Errorf("int8 voice query on GMM backends: status %d envelope %+v, want 400 bad_precision", r.status, env)
		}
		if env.RequestID == "" || env.RequestID != r.header.Get("X-Request-Id") {
			return fmt.Errorf("int8 voice query: envelope request_id %q does not match X-Request-Id %q", env.RequestID, r.header.Get("X-Request-Id"))
		}
		if r.header.Get("X-Sirius-Backend") == "" {
			return fmt.Errorf("int8 voice query: no X-Sirius-Backend header, so the envelope was not relayed from a backend: %+v", env)
		}
		dr, err := postPrec(fmt.Sprintf("http://127.0.0.1:%d", b1Port), "int8")
		if err != nil {
			return err
		}
		var direct envelope.Envelope
		if err := json.Unmarshal(dr.body, &direct); err != nil || dr.status != r.status || direct.Code != env.Code || direct.Reason != env.Reason || direct.Message != env.Message {
			return fmt.Errorf("int8 voice query: relayed envelope %d %+v differs from the backend's own %d %s", r.status, env, dr.status, dr.body)
		}
		counted := false
		for _, port := range []int{b1Port, b2Port} {
			mtext, err := h.metrics(fmt.Sprintf("http://127.0.0.1:%d", port))
			if err != nil {
				return err
			}
			if metricPositive(mtext, `sirius_query_errors_total{reason="bad_precision"}`) {
				counted = true
			}
		}
		if !counted {
			return fmt.Errorf(`no backend /metrics shows sirius_query_errors_total{reason="bad_precision"} > 0`)
		}
		log.Printf("int8 on the GMM engine relayed from %s as the backend's 400 bad_precision envelope: %q", r.header.Get("X-Sirius-Backend"), env.Message)
	}

	// --- Sharded search tier smoke: 1 frontend + 2 search-shard leaves ---
	// Two sirius-server processes in leaf mode (-shard i/2) register with
	// the already-running frontend as kind search; /v1/search through the
	// frontend must reproduce the unsharded index's ranking exactly. Then
	// shard 1 is SIGTERMed (draining out of the pool) and replaced with a
	// deliberately slow leaf (-shard-delay), and a query carrying a 250 ms
	// shard budget must still answer 200 — partial:true with only shard
	// 0's documents — while sirius_shard_searches_total{outcome="partial"}
	// advances.
	doSearch := func(q string, k int, budgetMs string) (int, sharedSearchResponse, error) {
		var sr sharedSearchResponse
		body, err := json.Marshal(map[string]any{"query": q, "k": k})
		if err != nil {
			return 0, sr, err
		}
		var header []string
		if budgetMs != "" {
			header = []string{"X-Sirius-Shard-Budget-Ms", budgetMs}
		}
		r, err := h.post(frontURL+"/v1/search", body, header...)
		if err != nil {
			return 0, sr, err
		}
		if r.status == http.StatusOK {
			if err := json.Unmarshal(r.body, &sr); err != nil {
				return r.status, sr, fmt.Errorf("bad /v1/search body %q: %w", r.body, err)
			}
		}
		return r.status, sr, nil
	}

	s1Port, err := freePort()
	if err != nil {
		return err
	}
	s2Port, err := freePort()
	if err != nil {
		return err
	}
	shard0 := &proc{name: "shard0"}
	shard1 := &proc{name: "shard1"}
	procs = append(procs, shard0, shard1)
	for i, p := range []*proc{shard0, shard1} {
		port := []int{s1Port, s2Port}[i]
		if err := p.start(ctx, *serverBin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-frontend", frontURL,
			"-shard", fmt.Sprintf("%d/2", i),
		); err != nil {
			return fmt.Errorf("start %s: %w", p.name, err)
		}
	}
	for _, port := range []int{s1Port, s2Port} {
		if err := h.waitHTTP(fmt.Sprintf("http://127.0.0.1:%d/readyz", port), http.StatusOK); err != nil {
			return err
		}
	}
	// Registration is asynchronous: poll until the full topology answers
	// without a dropped shard.
	for {
		status, sr, err := doSearch("what is the capital of italy", 10, "")
		if err == nil && status == http.StatusOK && !sr.Partial {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("search tier never became complete: %w (last: status %d, err %v)", ctx.Err(), status, err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	log.Printf("search tier up: 2 leaves on :%d :%d", s1Port, s2Port)
	if err := h.surface("leaf", fmt.Sprintf("http://127.0.0.1:%d", s1Port)); err != nil {
		return err
	}

	// Scatter-gather parity: the live 2-shard tier must return exactly
	// the unsharded index's top-10 (same docs, same order, same scores).
	whole := kb.BuildCorpus(kb.DefaultCorpusConfig())
	for _, q := range []string{
		"what is the capital of italy",
		"who is the author of harry potter",
		"where is las vegas",
	} {
		oracle := whole.Search(q, 10)
		status, sr, err := doSearch(q, 10, "")
		if err != nil {
			return fmt.Errorf("search %q: %w", q, err)
		}
		if status != http.StatusOK || sr.Partial {
			return fmt.Errorf("search %q: status %d partial %v", q, status, sr.Partial)
		}
		if len(sr.Results) != len(oracle) {
			return fmt.Errorf("search %q: %d results, oracle has %d", q, len(sr.Results), len(oracle))
		}
		for i := range oracle {
			if sr.Results[i].ID != oracle[i].Doc.ID {
				return fmt.Errorf("search %q pos %d: doc %d, oracle %d", q, i, sr.Results[i].ID, oracle[i].Doc.ID)
			}
			if d := math.Abs(sr.Results[i].Score - oracle[i].Score); d > 1e-9 {
				return fmt.Errorf("search %q pos %d: score drift %g", q, i, d)
			}
		}
	}
	log.Printf("2-shard scatter-gather matches the unsharded oracle exactly")

	// Kill shard 1 and replace it with a leaf that stalls every search
	// longer than any sane budget.
	shard1.stop()
	s3Port, err := freePort()
	if err != nil {
		return err
	}
	slowShard := &proc{name: "shard1-slow"}
	procs = append(procs, slowShard)
	if err := slowShard.start(ctx, *serverBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", s3Port),
		"-frontend", frontURL,
		"-shard", "1/2",
		"-shard-delay", "30s",
	); err != nil {
		return fmt.Errorf("start shard1-slow: %w", err)
	}
	if err := h.waitHTTP(fmt.Sprintf("http://127.0.0.1:%d/readyz", s3Port), http.StatusOK); err != nil {
		return err
	}
	// Wait for the frontend to see the replacement as ready.
	if err := h.waitBackendsReady(frontURL, func(st cluster.BackendStatus) bool {
		return st.Shard == "1/2" && strings.Contains(st.URL, strconv.Itoa(s3Port))
	}, 1); err != nil {
		return fmt.Errorf("replacement shard never became ready at the frontend: %w", err)
	}

	// A query against the degraded tier, budgeted at 250 ms per shard,
	// must answer 200 within the deadline with shard 0's documents only.
	{
		start := time.Now()
		status, sr, err := doSearch("what is the capital of italy", 10, "250")
		if err != nil {
			return fmt.Errorf("degraded search: %w", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			return fmt.Errorf("degraded search took %v — the shard budget did not bound the stall", elapsed)
		}
		if status != http.StatusOK {
			return fmt.Errorf("degraded search: status %d, want 200", status)
		}
		if !sr.Partial {
			return fmt.Errorf("degraded search: partial=false with a 30s-stalled shard")
		}
		if len(sr.FailedShards) != 1 || sr.FailedShards[0] != 1 {
			return fmt.Errorf("degraded search: failed shards %v, want [1]", sr.FailedShards)
		}
		if len(sr.Results) == 0 {
			return fmt.Errorf("degraded search: no results from the surviving shard")
		}
		for _, h := range sr.Results {
			if kb.ShardOf(h.ID, 2) != 0 {
				return fmt.Errorf("degraded search: doc %d belongs to the dead shard", h.ID)
			}
		}
		log.Printf("slow shard dropped at the 250 ms budget: 200 + partial:true in %v", time.Since(start).Round(time.Millisecond))
	}

	// The partial must show on the frontend's exposition, which must
	// still lint clean with the shard metrics present.
	{
		mtext, err := h.metrics(frontURL)
		if err != nil {
			return err
		}
		if !metricPositive(mtext, `sirius_shard_searches_total{outcome="partial"}`) {
			return fmt.Errorf("frontend /metrics: sirius_shard_searches_total{outcome=\"partial\"} not positive;\n--- metrics ---\n%s", mtext)
		}
		if err := telemetry.LintPrometheus(mtext); err != nil {
			return fmt.Errorf("frontend /metrics fails lint with shard metrics: %w", err)
		}
	}
	log.Printf("partial searches counted and /metrics lints clean; cluster smoke OK")

	return churnSmoke(h, *frontendBin, *serverBin, *autoscalerBin, &procs)
}

// autoscaleStatus mirrors the /autoscale JSON contract (kept local so
// the smoke exercises the wire shape, not the Go types).
type autoscaleStatus struct {
	Rate         float64 `json:"rate_qps"`
	ObservedP99  int64   `json:"observed_p99_ns"`
	PredictedP99 int64   `json:"predicted_p99_ns"`
	Desired      int     `json:"desired_replicas"`
	Live         int     `json:"live_replicas"`
	Ready        int     `json:"ready_replicas"`
	Max          int     `json:"max_replicas"`
	LastDecision string  `json:"last_decision"`
}

// churnSmoke stands up a second, empty frontend plus a sirius-autoscaler
// managing its whole backend pool, and drives the paper's provisioning
// story end to end: replicas run -query-delay 40ms so each is a known
// 25 q/s single-server queue, the load ramps ~10× (4 → 40 q/s) while the
// controller scales the pool 1 → >1 under a max of 3, then the load
// stops and the pool drains back to min — with zero client-visible 5xx
// throughout, the dcsim-predicted p99 within 2 histogram buckets (2×)
// of the measured frontend p99, and both up and down decisions on a
// lint-clean /metrics.
func churnSmoke(h smoke, frontendBin, serverBin, autoscalerBin string, procs *[]*proc) error {
	ctx := h.ctx
	f2Port, err := freePort()
	if err != nil {
		return err
	}
	asPort, err := freePort()
	if err != nil {
		return err
	}
	f2URL := fmt.Sprintf("http://127.0.0.1:%d", f2Port)
	asURL := fmt.Sprintf("http://127.0.0.1:%d", asPort)

	// Replicas share one model cache so only the first spawn pays
	// training; the persist is atomic (temp + rename), so concurrent
	// spawns never read a torn bundle.
	modelDir, err := os.MkdirTemp("", "sirius-churn-models-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(modelDir)

	front2 := &proc{name: "frontend2"}
	scaler := &proc{name: "autoscaler"}
	*procs = append(*procs, front2, scaler)
	if err := front2.start(ctx, frontendBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", f2Port),
		"-check-interval", "500ms",
	); err != nil {
		return fmt.Errorf("start frontend2: %w", err)
	}
	if err := scaler.start(ctx, autoscalerBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", asPort),
		"-frontend", f2URL,
		"-server-bin", serverBin,
		"-min", "1", "-max", "3",
		"-interval", "1s",
		"-cooldown", "2s",
		"-down-stable", "2",
		"-server-arg", "-query-delay=40ms",
		"-server-arg", "-models="+filepath.Join(modelDir, "models.gob"),
	); err != nil {
		return fmt.Errorf("start autoscaler: %w", err)
	}

	// The controller's first tick spawns the min replica, which
	// self-registers; the frontend goes ready once it passes a probe.
	if err := h.waitHTTP(asURL+"/healthz", http.StatusOK); err != nil {
		return err
	}
	if err := h.surface("autoscaler", asURL); err != nil {
		return err
	}
	if err := h.waitHTTP(f2URL+"/readyz", http.StatusOK); err != nil {
		return err
	}
	log.Printf("churn: autoscaler on :%d manages frontend2 on :%d (1 replica up)", asPort, f2Port)

	getStatus := func() (autoscaleStatus, error) {
		var st autoscaleStatus
		r, err := h.get(asURL + "/autoscale")
		if err != nil {
			return st, err
		}
		if r.status != http.StatusOK {
			return st, fmt.Errorf("/autoscale: status %d", r.status)
		}
		if err := json.Unmarshal(r.body, &st); err != nil {
			return st, fmt.Errorf("/autoscale: bad JSON %q: %w", r.body, err)
		}
		return st, nil
	}

	// Every request is a client of record: any 5xx (or transport error)
	// during churn is a smoke failure.
	var status5xx atomic.Int64
	texts := []string{
		"what is the capital of france",
		"call mom",
		"what is the capital of spain",
		"set my alarm for eight",
	}
	send := func(i int) (string, string, error) {
		r, err := h.post(f2URL+"/v1/query", query(nil, texts[i%len(texts)], ""))
		if err != nil {
			return "", "", err
		}
		if r.status >= 500 {
			status5xx.Add(1)
		}
		if r.status != http.StatusOK {
			return "", "", fmt.Errorf("status %d", r.status)
		}
		return "answer", "", nil
	}

	// Phase A — steady light load (10 q/s, well inside one replica's
	// capacity) while polling /autoscale for a tick where the dcsim
	// prediction lands within 2 histogram buckets (√2 wide, so 2×) of
	// the measured frontend p99.
	calDone := make(chan struct{})
	var calibrated atomic.Bool
	var lastCal atomic.Value // autoscaleStatus at best-seen ratio
	go func() {
		defer close(calDone)
		for {
			st, err := getStatus()
			if err == nil && st.ObservedP99 > 0 && st.PredictedP99 > 0 {
				lastCal.Store(st)
				ratio := float64(st.PredictedP99) / float64(st.ObservedP99)
				if ratio >= 0.5 && ratio <= 2.0 {
					calibrated.Store(true)
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}()
	resA, err := loadgen.Run(ctx, loadgen.Spec{Rate: 10, Requests: 120, Seed: 42}, send)
	if err != nil {
		return fmt.Errorf("churn baseline load: %w", err)
	}
	<-calDone
	if !calibrated.Load() {
		return fmt.Errorf("churn: dcsim prediction never landed within 2 buckets of measured p99 (last: %+v)", lastCal.Load())
	}
	if resA.Errors > 0 || status5xx.Load() > 0 {
		return fmt.Errorf("churn baseline: %d errors, %d 5xx (want 0)", resA.Errors, status5xx.Load())
	}
	cal := lastCal.Load().(autoscaleStatus)
	log.Printf("churn baseline: predicted p99 %v vs observed %v at %.1f q/s — within 2 buckets",
		time.Duration(cal.PredictedP99).Round(time.Millisecond), time.Duration(cal.ObservedP99).Round(time.Millisecond), cal.Rate)

	// Phase B — the ~10× ramp (4 → 40 q/s). 40 q/s exceeds one
	// replica's 25 q/s capacity, so the controller must scale out; a
	// watcher records the pool's excursion while the ramp runs.
	var maxLive, maxDesired atomic.Int64
	maxLive.Store(1)
	watchDone := make(chan struct{})
	watchCtx, stopWatch := context.WithCancel(ctx)
	go func() {
		defer close(watchDone)
		for {
			if st, err := getStatus(); err == nil {
				if int64(st.Live) > maxLive.Load() {
					maxLive.Store(int64(st.Live))
				}
				if int64(st.Desired) > maxDesired.Load() {
					maxDesired.Store(int64(st.Desired))
				}
			}
			select {
			case <-watchCtx.Done():
				return
			case <-time.After(150 * time.Millisecond):
			}
		}
	}()
	resB, err := loadgen.Run(ctx, loadgen.Spec{Rate: 4, RampTo: 40, Requests: 450, Seed: 7}, send)
	stopWatch()
	<-watchDone
	if err != nil {
		return fmt.Errorf("churn ramp load: %w", err)
	}
	if resB.Errors > 0 || status5xx.Load() > 0 {
		return fmt.Errorf("churn ramp: %d errors, %d 5xx (want 0)", resB.Errors, status5xx.Load())
	}
	if maxLive.Load() < 2 {
		return fmt.Errorf("churn ramp: pool never scaled out (max live %d)", maxLive.Load())
	}
	if maxLive.Load() > 3 || maxDesired.Load() > 3 {
		return fmt.Errorf("churn ramp: bounds violated (max live %d, max desired %d, cap 3)", maxLive.Load(), maxDesired.Load())
	}
	log.Printf("churn ramp 4→40 q/s: pool peaked at %d replicas (cap 3), 0 client 5xx across %d requests",
		maxLive.Load(), resA.Sent+resB.Sent)

	// Phase C — the load stops; the down-stable streak plus cooldown
	// must walk the pool back to min without undershooting it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := getStatus()
		if err == nil && st.Live == 1 {
			break
		}
		if err == nil && st.Live < 1 {
			return fmt.Errorf("churn drain: pool fell below min (live %d)", st.Live)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("churn drain: pool never returned to min (last: %+v)", st)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("churn drain: %w", ctx.Err())
		case <-time.After(300 * time.Millisecond):
		}
	}
	log.Printf("churn drain: pool back to 1 replica after the ramp")

	// The decision ledger must show both directions, and the
	// autoscaler's own exposition must lint clean.
	mtext, err := h.metrics(asURL)
	if err != nil {
		return err
	}
	for _, name := range []string{
		`sirius_autoscale_decisions_total{action="up"}`,
		`sirius_autoscale_decisions_total{action="down"}`,
	} {
		if !metricPositive(mtext, name) {
			return fmt.Errorf("autoscaler /metrics: %s not positive;\n--- metrics ---\n%s", name, mtext)
		}
	}
	if err := telemetry.LintPrometheus(mtext); err != nil {
		return fmt.Errorf("autoscaler /metrics fails lint: %w", err)
	}
	log.Printf("autoscaler decisions up+down recorded, /metrics lints clean; churn smoke OK")
	return nil
}

// sharedSearchResponse mirrors shard.SearchResponse's wire shape (kept
// local so the smoke exercises the public JSON contract, not the Go
// types).
type sharedSearchResponse struct {
	Results []struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
	Partial      bool  `json:"partial"`
	Shards       int   `json:"shards"`
	FailedShards []int `json:"failed_shards"`
}

// metricPositive reports whether the Prometheus text exposition
// contains the named sample with a value greater than zero.
func metricPositive(metrics, name string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return err == nil && v > 0
		}
	}
	return false
}

func main() {
	log.SetPrefix("clustersmoke: ")
	if err := run(); err != nil {
		log.Printf("FAIL: %v", err)
		os.Exit(1)
	}
}
