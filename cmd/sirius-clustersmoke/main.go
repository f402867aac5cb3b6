// Command sirius-clustersmoke is the CI gate for the serving tier. It
// runs the paper's warehouse-scale topology as real processes on
// loopback ports — a sirius-frontend routing queries to sirius-server
// backends and searches to search-shard leaves, and a second frontend
// whose whole backend pool a sirius-autoscaler owns — and drives it
// through an ordered table of phases. Each phase is one function over
// the harness, and each sees the cluster the phases before it left:
//
//	front door         a frontend and two backends (backend 2 under
//	                   -max-inflight 1) come up; text queries answer
//	                   through the frontend, both backends serve
//	error envelopes    an empty query and a multipart body come back as
//	                   the backend's envelope, relayed verbatim
//	observability      one stitched two-tier trace, measured stage
//	                   shares, exemplars and the sirius_slo_* gauges
//	request lifecycle  on backend 2 a 1 ms deadline is the 503 timeout
//	                   envelope and a burst sheds with the 429
//	                   overloaded one, both counted
//	stream             /v1/stream partials precede the final, which
//	                   equals the one-shot transcript; both tiers count
//	                   the session
//	precision          int8 on the GMM engine is the backend's 400
//	                   bad_precision envelope, relayed and counted
//	search tier        two leaves rank exactly as the unsharded index; a
//	                   stalled replacement leaf gives 200 partial:true
//	                   inside a 250 ms shard budget
//	churn              under a ~10x ramp the autoscaler scales its pool
//	                   1 -> >1 -> 1 within bounds with zero client 5xx,
//	                   its dcsim p99 within 2 buckets of the measured one
//
// Every kind of process (frontend, backend, leaf, autoscaler) must
// answer /healthz, /metrics and /debug/pprof/, and every /metrics
// scrape must lint clean. Teardown SIGTERMs the children in reverse
// start order, so each backend deregisters while its frontend still
// runs. A failed run dumps every child's output; a passing run fails if
// any child's output shows a panic or a fatal error. The whole run has
// a fixed 240 s deadline, at which the children are stopped and the
// gate fails rather than hangs. verify.sh runs it after the unit tests.
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
	"errors"
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
	"sirius/internal/hmm"
	"sirius/internal/kb"
	"sirius/internal/loadgen"
	"sirius/internal/sirius"
	"sirius/internal/telemetry"
)

// The smoke's fixed shape: the hard deadline for the whole run (the
// churn phase spends most of it), how often a condition is polled, and
// the text queries issued through the frontend.
const (
	smokeDeadline = 240 * time.Second
	pollEvery     = 200 * time.Millisecond
	textQueries   = 12
)

// phases run in order against one harness.
var phases = []struct {
	name string
	run  func(*harness) error
}{
	{"front door", frontDoor},
	{"error envelopes", errorEnvelopes},
	{"observability", observability},
	{"request lifecycle", requestLifecycle},
	{"stream", stream},
	{"precision", precision},
	{"search tier", searchTier},
	{"churn", churn},
}

var texts = []string{
	"what is the capital of france",
	"call mom",
	"what is the capital of spain",
	"set my alarm for eight",
}

func run() (err error) {
	h := &harness{client: &http.Client{Timeout: 10 * time.Second}, claimed: map[int]bool{}}
	h.lex, _ = kb.BuildLexicon()
	flag.StringVar(&h.serverBin, "server-bin", "", "path to the sirius-server binary")
	flag.StringVar(&h.frontendBin, "frontend-bin", "", "path to the sirius-frontend binary")
	flag.StringVar(&h.autoscalerBin, "autoscaler-bin", "", "path to the sirius-autoscaler binary")
	flag.Parse()
	if h.serverBin == "" || h.frontendBin == "" || h.autoscalerBin == "" {
		return fmt.Errorf("-server-bin, -frontend-bin and -autoscaler-bin are all required")
	}
	var cancel context.CancelFunc
	h.ctx, cancel = context.WithTimeout(context.Background(), smokeDeadline)
	defer cancel()
	defer func() { err = h.teardown(err) }()

	for _, ph := range phases {
		start := time.Now()
		if err := ph.run(h); err != nil {
			return fmt.Errorf("%s: %w", ph.name, err)
		}
		log.Printf("phase %q passed in %v", ph.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// harness owns the run: its deadline, its HTTP client, every child
// process, and the cluster the phases share.
type harness struct {
	ctx                                   context.Context
	client                                *http.Client
	serverBin, frontendBin, autoscalerBin string

	procs   []*proc      // every child, in start order
	claimed map[int]bool // every port freePort has handed out
	lex     *hmm.Lexicon // what voice queries are synthesized over

	front *proc   // the frontend every phase before churn queries
	backs []*proc // its two query backends; backs[1] runs -max-inflight 1
}

// proc is one child process and its captured output.
type proc struct {
	name, url string
	cmd       *exec.Cmd

	mu  sync.Mutex
	out bytes.Buffer
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// stop SIGTERMs p (a graceful drain) and waits for it to exit. Stopping
// a child that has already exited is a no-op.
func (p *proc) stop() {
	if p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		_ = p.cmd.Wait()
	}
}

// freePort asks the kernel for an unused loopback port, never repeating
// one within this run: once a probe listener closes the kernel may hand
// the same port to the next probe, and two children racing for one port
// fail in confusing ways. A small window remains before the child binds
// it; on a loopback-only host it is negligible.
func (h *harness) freePort() (int, error) {
	for i := 0; i < 32; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if !h.claimed[port] {
			h.claimed[port] = true
			return port, nil
		}
	}
	return 0, fmt.Errorf("freePort: kernel kept returning already-claimed ports")
}

// spawn starts bin with -addr on a fresh loopback port plus args, and
// records the child for teardown.
func (h *harness) spawn(name, bin string, args ...string) (*proc, error) {
	port, err := h.freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &proc{name: name, url: "http://" + addr}
	p.cmd = exec.CommandContext(h.ctx, bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = p, p
	// At the deadline, deliver SIGTERM (graceful drain) rather than
	// SIGKILL, and escalate if the drain hangs.
	p.cmd.Cancel = func() error { return p.cmd.Process.Signal(syscall.SIGTERM) }
	p.cmd.WaitDelay = 10 * time.Second
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.procs = append(h.procs, p)
	return p, nil
}

// teardown stops every child in reverse start order. A failed run (err
// set) dumps every child's output; a passing one fails if any child's
// output shows a crash.
func (h *harness) teardown(err error) error {
	for i := len(h.procs) - 1; i >= 0; i-- {
		h.procs[i].stop()
	}
	for i := 0; err == nil && i < len(h.procs); i++ {
		err = crashed(h.procs[i].name, h.procs[i].output())
	}
	if err != nil {
		for _, p := range h.procs {
			fmt.Fprintf(os.Stderr, "--- %s output ---\n%s\n", p.name, p.output())
		}
	}
	return err
}

// crashed reports a panic or a fatal runtime error in a child's output.
func crashed(name, output string) error {
	for _, sign := range []string{"panic", "fatal error"} {
		if strings.Contains(output, sign) {
			return fmt.Errorf("%s output shows %q", name, sign)
		}
	}
	return nil
}

// eventually polls cond every interval until it returns nil or ctx
// ends, and then names what it waited for and cond's last error.
func eventually(ctx context.Context, what string, every time.Duration, cond func() error) error {
	for {
		err := cond()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w (last: %v)", what, ctx.Err(), err)
		case <-time.After(every):
		}
	}
}

// reply is one exchange's outcome.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request, with header given as name, value pairs; the
// exchange is bounded by the run's deadline and read whole.
func (h *harness) do(method, url string, body []byte, header ...string) (reply, error) {
	req, err := http.NewRequestWithContext(h.ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: payload, header: resp.Header}, err
}

// post sends body as JSON, plus any extra header pairs.
func (h *harness) post(url string, body []byte, header ...string) (reply, error) {
	return h.do(http.MethodPost, url, body, append([]string{"Content-Type", "application/json"}, header...)...)
}

func (h *harness) get(url string) (reply, error) { return h.do(http.MethodGet, url, nil) }

// decodeOK checks that an exchange answered 200 and decodes its JSON
// body into out (nil skips the decode).
func decodeOK(r reply, err error, out any) error {
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d; body %s", r.status, r.body)
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			return fmt.Errorf("bad JSON %q: %w", r.body, err)
		}
	}
	return nil
}

// ok checks that url answers 200.
func (h *harness) ok(url string) error {
	r, err := h.get(url)
	if err := decodeOK(r, err, nil); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// backendsReady is a condition: the frontend at front lists at least n
// backends that match and are ready — registered and passing the
// frontend's own health probe, which a backend's /readyz says nothing
// about.
func (h *harness) backendsReady(front string, n int, match func(cluster.BackendStatus) bool) func() error {
	return func() error {
		var sts []cluster.BackendStatus
		r, err := h.get(front + "/backends")
		if err := decodeOK(r, err, &sts); err != nil {
			return err
		}
		ready := 0
		for _, st := range sts {
			if st.Ready && match(st) {
				ready++
			}
		}
		if ready < n {
			return fmt.Errorf("%d of %d backends ready: %s", ready, n, r.body)
		}
		return nil
	}
}

// metrics is one /metrics exposition.
type metrics string

// scrape fetches base's /metrics and lints it.
func (h *harness) scrape(base string) (metrics, error) {
	r, err := h.get(base + "/metrics")
	if err := decodeOK(r, err, nil); err != nil {
		return "", fmt.Errorf("%s/metrics: %w", base, err)
	}
	if err := telemetry.LintPrometheus(string(r.body)); err != nil {
		return "", fmt.Errorf("%s/metrics fails lint: %w", base, err)
	}
	return metrics(r.body), nil
}

// positive checks that each named sample is above zero.
func (m metrics) positive(series ...string) error {
next:
	for _, name := range series {
		for _, line := range strings.Split(string(m), "\n") {
			if fields := strings.Fields(line); len(fields) == 2 && fields[0] == name {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil && v > 0 {
					continue next
				}
				break
			}
		}
		return fmt.Errorf("%s not positive", name)
	}
	return nil
}

// somePositive checks that series is above zero on at least one of ps.
func (h *harness) somePositive(series string, ps ...*proc) error {
	for _, p := range ps {
		m, err := h.scrape(p.url)
		if err != nil {
			return err
		}
		if m.positive(series) == nil {
			return nil
		}
	}
	return fmt.Errorf("%s not positive on any of %d processes", series, len(ps))
}

// surface checks that p answers the operational routes every binary
// mounts through telemetry.Mount.
func (h *harness) surface(p *proc) error {
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		if err := h.ok(p.url + path); err != nil {
			return err
		}
	}
	_, err := h.scrape(p.url)
	return err
}

// checkEnvelope checks that r is the error envelope for status and
// reason, carrying a request id equal to its X-Request-Id header.
func checkEnvelope(r reply, status int, reason string) error {
	var env envelope.Envelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("status %d, not an error envelope %q: %w", r.status, r.body, err)
	}
	if r.status != status || env.Code != status || env.Reason != reason {
		return fmt.Errorf("status %d envelope %+v, want %d %s", r.status, env, status, reason)
	}
	if id := r.header.Get("X-Request-Id"); env.RequestID == "" || env.RequestID != id {
		return fmt.Errorf("envelope request_id %q does not match X-Request-Id %q", env.RequestID, id)
	}
	return nil
}

// checkRelay checks that relayed, an envelope the frontend returned,
// names the backend it came from and equals direct, the one a backend
// returns when asked itself: the same status, code, reason and message.
func checkRelay(relayed, direct reply) error {
	if relayed.header.Get("X-Sirius-Backend") == "" {
		return fmt.Errorf("no X-Sirius-Backend header, so %s was not relayed from a backend", relayed.body)
	}
	var env [2]envelope.Envelope
	for i, r := range []reply{relayed, direct} {
		if err := json.Unmarshal(r.body, &env[i]); err != nil {
			return fmt.Errorf("%q is not an envelope: %w", r.body, err)
		}
	}
	if rel, dir := env[0], env[1]; relayed.status != direct.status || rel.Code != dir.Code || rel.Reason != dir.Reason || rel.Message != dir.Message {
		return fmt.Errorf("relayed envelope %d %+v differs from the backend's own %d %+v", relayed.status, rel, direct.status, dir)
	}
	return nil
}

// relays posts body to the frontend and straight to backend 1, and
// checks that the frontend relays the backend's status/reason envelope
// verbatim.
func (h *harness) relays(body []byte, contentType string, status int, reason string) error {
	var rs [2]reply
	for i, base := range []string{h.front.url, h.backs[0].url} {
		var err error
		if rs[i], err = h.do(http.MethodPost, base+"/v1/query", body, "Content-Type", contentType); err != nil {
			return err
		}
	}
	if err := checkEnvelope(rs[0], status, reason); err != nil {
		return err
	}
	return checkRelay(rs[0], rs[1])
}

// query builds a /v1/query body.
func query(samples []float64, text, precision string) []byte {
	body, _, err := sirius.BuildJSONQueryPrecision(samples, nil, text, precision)
	if err != nil {
		panic(err) // every writer behind it is a bytes.Buffer
	}
	return body.Bytes()
}

// frontDoor stands up the frontend and its two query backends, and
// checks that text queries proxy end to end, that both backends serve,
// and that frontend and backend answer the operational routes. Backend
// 2 doubles as the admission-control fixture: one slot, so the
// lifecycle phase can saturate it on demand.
func frontDoor(h *harness) error {
	front, err := h.spawn("frontend", h.frontendBin)
	if err != nil {
		return err
	}
	h.front = front
	for i, extra := range [][]string{nil, {"-max-inflight", "1"}} {
		b, err := h.spawn(fmt.Sprintf("backend%d", i+1), h.serverBin, append([]string{"-frontend", front.url}, extra...)...)
		if err != nil {
			return err
		}
		h.backs = append(h.backs, b)
	}
	// Round-robin has two targets only once the frontend lists both
	// backends as ready; before that every text query below could land
	// on the first one and the "both served" check fail.
	if err := eventually(h.ctx, "both backends ready at the frontend", pollEvery, h.backendsReady(front.url, 2, func(st cluster.BackendStatus) bool {
		return st.URL == h.backs[0].url || st.URL == h.backs[1].url
	})); err != nil {
		return err
	}
	log.Printf("cluster up: frontend %s, backends %s %s", front.url, h.backs[0].url, h.backs[1].url)

	for i := 0; i < textQueries; i++ {
		var ans struct {
			Answer string `json:"answer"`
		}
		r, err := h.post(front.url+"/v1/query", query(nil, texts[i%len(texts)], ""))
		if err := decodeOK(r, err, &ans); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		if i == 0 {
			log.Printf("/v1/query answered %q", ans.Answer)
		}
	}
	m, err := h.scrape(front.url)
	if err != nil {
		return err
	}
	for _, b := range h.backs {
		if err := m.positive(fmt.Sprintf(`cluster_backend_requests_total{backend=%q,outcome="ok"}`, strings.TrimPrefix(b.url, "http://"))); err != nil {
			return fmt.Errorf("%s never served: %w", b.name, err)
		}
	}
	if err := h.surface(front); err != nil {
		return err
	}
	return h.surface(h.backs[0])
}

// errorEnvelopes checks that the frontend relays a backend's structured
// error verbatim: an empty query is the 400 empty_query envelope, and a
// multipart form (JSON is the one body encoding) is the 400 bad_json
// envelope backend 1 gives when asked directly.
func errorEnvelopes(h *harness) error {
	r, err := h.post(h.front.url+"/v1/query", query(nil, "", ""))
	if err != nil {
		return err
	}
	if err := checkEnvelope(r, http.StatusBadRequest, envelope.ReasonEmptyQuery); err != nil {
		return fmt.Errorf("empty query: %w", err)
	}
	log.Printf("error envelope relayed through the frontend: %s", r.body)

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	_ = mw.WriteField("text", "what is the capital of france") // a bytes.Buffer cannot fail
	mw.Close()
	if err := h.relays(form.Bytes(), mw.FormDataContentType(), http.StatusBadRequest, envelope.ReasonBadJSON); err != nil {
		return fmt.Errorf("multipart query: %w", err)
	}
	log.Printf("multipart body relayed as the backend's 400 bad_json envelope")
	return nil
}

// observability checks the cross-tier views of one request and of the
// traffic so far: a stitched trace, the measured breakdown, and the
// frontend's exemplars and SLO gauges on lint-clean scrapes of all
// three processes.
func observability(h *harness) error {
	// One query, keeping its request id, must yield a single trace on
	// the frontend's /debug/traces: the frontend's spans plus the
	// backend's grafted (remote) span tree, with offsets that never
	// precede a parent's (the stitch is anchored on span offsets, never
	// wall clocks, so inter-process skew must not show through).
	r, err := h.post(h.front.url+"/v1/query", query(nil, "what is the capital of france", ""))
	if err := decodeOK(r, err, nil); err != nil {
		return fmt.Errorf("traced query: %w", err)
	}
	id := r.header.Get("X-Request-Id")
	if id == "" {
		return fmt.Errorf("traced query: response missing X-Request-Id")
	}
	var tr telemetry.Trace
	lookup, err := h.get(h.front.url + "/debug/traces?id=" + id)
	if err := decodeOK(lookup, err, &tr); err != nil {
		return fmt.Errorf("trace lookup %s: %w", id, err)
	}
	if tr.ID != id || tr.Root == nil {
		return fmt.Errorf("trace lookup %s: wrong trace (id %q, root %v)", id, tr.ID, tr.Root != nil)
	}
	local, remote, err := countSpans(tr.Root, 0)
	if err != nil {
		return fmt.Errorf("stitched trace %s: %w;\n--- trace ---\n%s", id, err, lookup.body)
	}
	if local == 0 || remote == 0 {
		return fmt.Errorf("stitched trace %s: want both tiers' spans, got %d local / %d remote;\n--- trace ---\n%s", id, local, remote, lookup.body)
	}
	log.Printf("stitched trace %s: %d frontend spans + %d backend spans, offsets monotone", id, local, remote)

	// At least one backend's /debug/breakdown must report a nonzero
	// total with a nonzero-share stage (text queries land in stage qa).
	sawWork := false
	for _, b := range h.backs {
		var rep telemetry.BreakdownReport
		r, err := h.get(b.url + "/debug/breakdown")
		if err := decodeOK(r, err, &rep); err != nil {
			return fmt.Errorf("%s /debug/breakdown: %w", b.name, err)
		}
		for _, st := range rep.Stages {
			sawWork = sawWork || (rep.TotalSeconds > 0 && st.Share > 0 && len(st.Kernels) > 0)
		}
	}
	if !sawWork {
		return fmt.Errorf("no backend /debug/breakdown reported a nonzero measured stage share")
	}
	log.Printf("/debug/breakdown reports nonzero measured stage shares")

	// The frontend's exposition must carry at least one OpenMetrics
	// exemplar (a slow bucket pointing at a trace id) and the SLO gauges.
	for _, p := range []*proc{h.front, h.backs[0], h.backs[1]} {
		m, err := h.scrape(p.url)
		if err != nil {
			return err
		}
		if p != h.front {
			continue
		}
		for _, want := range []string{`# {trace_id="`, "sirius_slo_target_seconds", "sirius_slo_objective_ratio", "sirius_slo_burn_rate"} {
			if !strings.Contains(string(m), want) {
				return fmt.Errorf("frontend /metrics has no %s", want)
			}
		}
	}
	log.Printf("exemplars + sirius_slo_* present; all three processes' /metrics lint clean")
	return nil
}

// countSpans counts a span tree's local and remote spans, failing on a
// span whose offset precedes its parent's.
func countSpans(sp *telemetry.Span, parentOff time.Duration) (local, remote int, err error) {
	if sp.Offset < parentOff {
		return 0, 0, fmt.Errorf("span %q offset %v precedes its parent's %v", sp.Name, sp.Offset, parentOff)
	}
	if sp.Remote {
		remote++
	} else {
		local++
	}
	for _, c := range sp.Children {
		l, r, err := countSpans(c, sp.Offset)
		if err != nil {
			return 0, 0, err
		}
		local, remote = local+l, remote+r
	}
	return local, remote, nil
}

// requestLifecycle drives backend 2 (-max-inflight 1) directly with
// voice queries, the slow path (a full Viterbi decode), which makes both
// checks deterministic: a 1 ms budget cannot cover a decode, and a
// concurrent burst must overlap in the single admission slot.
func requestLifecycle(h *harness) error {
	b2 := h.backs[1].url + "/v1/query"
	samples, err := asr.SynthesizeText(h.lex, "what is the capital of france", 7)
	if err != nil {
		return err
	}
	voice := query(samples, "", "")

	r, err := h.post(b2, voice, "X-Sirius-Timeout-Ms", "1")
	if err != nil {
		return fmt.Errorf("deadline query: %w", err)
	}
	if err := checkEnvelope(r, http.StatusServiceUnavailable, envelope.ReasonTimeout); err != nil {
		return fmt.Errorf("deadline query: %w", err)
	}
	log.Printf("1 ms deadline aborted the decode with the 503 timeout envelope")

	// Of a concurrent burst at most one request is admitted, so a
	// sibling must be shed with the 429 envelope and a Retry-After hint.
	// Retried a few times in case scheduling staggers the burst enough
	// for the admitted decode to finish between arrivals.
	const burst, attempts = 4, 5
	shed := false
	for attempt := 0; attempt < attempts && !shed; attempt++ {
		var replies [burst]reply
		var errs [burst]error
		var wg sync.WaitGroup
		for i := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i], errs[i] = h.post(b2, voice)
			}()
		}
		wg.Wait()
		for i, r := range replies {
			if errs[i] != nil {
				return fmt.Errorf("shed burst: %w", errs[i])
			}
			if r.status != http.StatusTooManyRequests {
				continue
			}
			if err := checkEnvelope(r, http.StatusTooManyRequests, envelope.ReasonOverloaded); err != nil {
				return fmt.Errorf("shed burst: %w", err)
			}
			if r.header.Get("Retry-After") == "" {
				return fmt.Errorf("shed burst: 429 reply missing Retry-After")
			}
			shed = true
		}
	}
	if !shed {
		return fmt.Errorf("no 429 from backend2 across %d concurrent voice bursts", attempts)
	}
	log.Printf("admission control shed the burst with the 429 overloaded envelope")

	m, err := h.scrape(h.backs[1].url)
	if err != nil {
		return err
	}
	return m.positive(`sirius_query_errors_total{reason="timeout"}`, `sirius_query_errors_total{reason="overloaded"}`)
}

// stream sends one recording through both voice front doors of the
// frontend: one-shot as a /v1/query body, and incrementally as a
// chunked /v1/stream session relayed to one sticky backend. The session
// must surface a stabilized partial while audio is still arriving
// (frames strictly before the final's), and its final transcript must
// equal the one-shot one: the chunked front end and the incremental
// decoder are bit-exact, so any divergence is a serving bug.
func stream(h *harness) error {
	samples, err := asr.SynthesizeText(h.lex, "set my alarm for eight", 11)
	if err != nil {
		return err
	}
	var oneShot struct {
		Transcript string `json:"transcript"`
	}
	r, err := h.post(h.front.url+"/v1/query", query(samples, "", ""))
	if err := decodeOK(r, err, &oneShot); err != nil {
		return fmt.Errorf("one-shot voice query: %w", err)
	}
	if oneShot.Transcript == "" {
		return fmt.Errorf("one-shot voice query: empty transcript; body %s", r.body)
	}

	var partials []sirius.StreamEvent
	final, err := sirius.StreamSamples(h.ctx, h.client, h.front.url+"/v1/stream", samples, 1600, nil, func(ev sirius.StreamEvent) {
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

	// The relay counter on the frontend and the session counter on the
	// backend that served it; both tiers finish their accounting just
	// after the client reads the final event.
	return eventually(h.ctx, "the stream counted on both tiers", 50*time.Millisecond, func() error {
		m, err := h.scrape(h.front.url)
		if err != nil {
			return err
		}
		if err := m.positive(`cluster_streams_total{outcome="ok"}`); err != nil {
			return err
		}
		return h.somePositive(`sirius_stream_sessions_total{outcome="ok"}`, h.backs...)
	})
}

// precision sends one recording through the frontend at each precision.
// The backends run the GMM engine, whose bank has no int8 kernel: fp64
// must answer labeled precision "fp64", and int8 must be the backend's
// 400 bad_precision envelope relayed verbatim and counted on a backend.
// (The DNN's int8 path is pinned by TestInt8TranscriptParity and the
// voice_dnn_i8 workload.)
func precision(h *harness) error {
	samples, err := asr.SynthesizeText(h.lex, "call mom", 13)
	if err != nil {
		return err
	}
	var fp sirius.Response
	r, err := h.post(h.front.url+"/v1/query", query(samples, "", "fp64"))
	if err := decodeOK(r, err, &fp); err != nil || fp.Precision != "fp64" {
		return fmt.Errorf("fp64 voice query: want 200 labeled fp64, got %q (%v)", fp.Precision, err)
	}
	if err := h.relays(query(samples, "", "int8"), "application/json", http.StatusBadRequest, envelope.ReasonBadPrecision); err != nil {
		return fmt.Errorf("int8 voice query on GMM backends: %w", err)
	}
	if err := h.somePositive(`sirius_query_errors_total{reason="bad_precision"}`, h.backs...); err != nil {
		return err
	}
	log.Printf("int8 on the GMM engine relayed as the backend's 400 bad_precision envelope")
	return nil
}

// searchResponse mirrors shard.SearchResponse's wire shape (kept local
// so the smoke exercises the public JSON contract, not the Go types).
type searchResponse struct {
	Results []struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
	Partial      bool  `json:"partial"`
	FailedShards []int `json:"failed_shards"`
}

// search asks the frontend's /v1/search for q's top 10, under a
// per-shard budget in milliseconds unless budgetMs is empty.
func (h *harness) search(q, budgetMs string) (searchResponse, error) {
	var sr searchResponse
	body := []byte(fmt.Sprintf(`{"query":%q,"k":10}`, q))
	var header []string
	if budgetMs != "" {
		header = []string{"X-Sirius-Shard-Budget-Ms", budgetMs}
	}
	r, err := h.post(h.front.url+"/v1/search", body, header...)
	return sr, decodeOK(r, err, &sr)
}

// searchTier registers two search-shard leaves (-shard 0/2 and 1/2)
// with the frontend, whose scatter-gather must reproduce the unsharded
// index's ranking exactly. Then shard 1 is SIGTERMed (draining out of
// the pool) and replaced with a leaf that stalls every search for 30 s:
// a query under a 250 ms shard budget must still answer 200 with
// partial:true and shard 0's documents only, and be counted.
func searchTier(h *harness) error {
	const italy = "what is the capital of italy"
	var leaves []*proc
	for i := 0; i < 2; i++ {
		p, err := h.spawn(fmt.Sprintf("shard%d", i), h.serverBin, "-frontend", h.front.url, "-shard", fmt.Sprintf("%d/2", i))
		if err != nil {
			return err
		}
		leaves = append(leaves, p)
	}
	// Registration is asynchronous: poll until the full topology
	// answers without a dropped shard.
	if err := eventually(h.ctx, "a complete search tier", pollEvery, func() error {
		sr, err := h.search(italy, "")
		if err == nil && sr.Partial {
			err = errors.New("partial answer")
		}
		return err
	}); err != nil {
		return err
	}
	log.Printf("search tier up: leaves %s %s", leaves[0].url, leaves[1].url)
	if err := h.surface(leaves[0]); err != nil {
		return err
	}

	whole := kb.BuildCorpus(kb.DefaultCorpusConfig())
	for _, q := range []string{italy, "who is the author of harry potter", "where is las vegas"} {
		oracle := whole.Search(q, 10)
		sr, err := h.search(q, "")
		if err != nil {
			return fmt.Errorf("search %q: %w", q, err)
		}
		if sr.Partial || len(sr.Results) != len(oracle) {
			return fmt.Errorf("search %q: partial %v, %d results, oracle has %d", q, sr.Partial, len(sr.Results), len(oracle))
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

	leaves[1].stop()
	slow, err := h.spawn("shard1-slow", h.serverBin, "-frontend", h.front.url, "-shard", "1/2", "-shard-delay", "30s")
	if err != nil {
		return err
	}
	if err := eventually(h.ctx, "the replacement shard ready at the frontend", pollEvery, h.backendsReady(h.front.url, 1, func(st cluster.BackendStatus) bool {
		return st.Shard == "1/2" && st.URL == slow.url
	})); err != nil {
		return err
	}

	start := time.Now()
	sr, err := h.search(italy, "250")
	if err != nil {
		return fmt.Errorf("degraded search: %w", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		return fmt.Errorf("degraded search took %v — the shard budget did not bound the stall", elapsed)
	}
	if !sr.Partial || len(sr.FailedShards) != 1 || sr.FailedShards[0] != 1 {
		return fmt.Errorf("degraded search: partial %v, failed shards %v, want true and [1]", sr.Partial, sr.FailedShards)
	}
	if len(sr.Results) == 0 {
		return fmt.Errorf("degraded search: no results from the surviving shard")
	}
	for _, res := range sr.Results {
		if kb.ShardOf(res.ID, 2) != 0 {
			return fmt.Errorf("degraded search: doc %d belongs to the dead shard", res.ID)
		}
	}
	log.Printf("slow shard dropped at the 250 ms budget: 200 + partial:true in %v", time.Since(start).Round(time.Millisecond))

	m, err := h.scrape(h.front.url)
	if err != nil {
		return err
	}
	return m.positive(`sirius_shard_searches_total{outcome="partial"}`)
}

// autoscaleStatus mirrors the /autoscale JSON contract (kept local so
// the smoke exercises the wire shape, not the Go types).
type autoscaleStatus struct {
	Rate         float64 `json:"rate_qps"`
	ObservedP99  int64   `json:"observed_p99_ns"`
	PredictedP99 int64   `json:"predicted_p99_ns"`
	Desired      int     `json:"desired_replicas"`
	Live         int     `json:"live_replicas"`
}

// churn stands up a second, empty frontend plus a sirius-autoscaler
// owning its whole backend pool, and drives the paper's provisioning
// story end to end. Replicas run -query-delay 40ms, so each is a known
// 25 q/s single-server queue. A light steady load must bring the
// controller's dcsim-predicted p99 within 2 histogram buckets (2×) of
// the frontend's measured one; a ~10× ramp (4 → 40 q/s) must scale the
// pool past one replica without exceeding its max of 3; once the load
// stops the pool must drain back to its min of 1. No client may see a
// 5xx throughout, and the autoscaler's lint-clean /metrics must count
// both up and down decisions.
func churn(h *harness) error {
	// Replicas share one model cache so only the first spawn pays
	// training; the persist is atomic (temp + rename), so concurrent
	// spawns never read a torn bundle.
	modelDir, err := os.MkdirTemp("", "sirius-churn-models-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(modelDir)

	front2, err := h.spawn("frontend2", h.frontendBin, "-check-interval", "500ms")
	if err != nil {
		return err
	}
	scaler, err := h.spawn("autoscaler", h.autoscalerBin,
		"-frontend", front2.url,
		"-server-bin", h.serverBin,
		"-min", "1", "-max", "3",
		"-interval", "1s",
		"-cooldown", "2s",
		"-down-stable", "2",
		"-server-arg", "-query-delay=40ms",
		"-server-arg", "-models="+filepath.Join(modelDir, "models.gob"),
	)
	if err != nil {
		return err
	}
	// The controller's first tick spawns the min replica, which
	// self-registers; the frontend goes ready once it passes a probe.
	if err := eventually(h.ctx, "the autoscaler's operational routes", pollEvery, func() error { return h.surface(scaler) }); err != nil {
		return err
	}
	if err := eventually(h.ctx, "frontend2 ready", pollEvery, func() error { return h.ok(front2.url + "/readyz") }); err != nil {
		return err
	}
	log.Printf("churn: autoscaler %s manages frontend2 %s (1 replica up)", scaler.url, front2.url)

	status := func() (autoscaleStatus, error) {
		var st autoscaleStatus
		r, err := h.get(scaler.url + "/autoscale")
		return st, decodeOK(r, err, &st)
	}
	// Every request is a client of record: a 5xx or a transport error
	// fails the smoke.
	var status5xx atomic.Int64
	send := func(i int) (string, string, error) {
		r, err := h.post(front2.url+"/v1/query", query(nil, texts[i%len(texts)], ""))
		if err == nil && r.status >= 500 {
			status5xx.Add(1)
		}
		return "answer", "", decodeOK(r, err, nil)
	}

	// Steady light load (10 q/s, well inside one replica's capacity)
	// while a poller waits for a tick whose prediction lands within 2
	// buckets (√2 wide, so 2×) of the measured p99.
	var cal autoscaleStatus
	calCtx, stopCal := context.WithCancel(h.ctx)
	defer stopCal()
	calibrated := make(chan error, 1)
	go func() {
		calibrated <- eventually(calCtx, "the dcsim p99 within 2 buckets of the measured p99", pollEvery, func() error {
			st, err := status()
			if err != nil || st.ObservedP99 <= 0 || st.PredictedP99 <= 0 {
				return fmt.Errorf("no p99 pair yet: %+v (%v)", st, err)
			}
			cal = st
			if ratio := float64(st.PredictedP99) / float64(st.ObservedP99); ratio < 0.5 || ratio > 2 {
				return fmt.Errorf("predicted/observed %.2f: %+v", ratio, st)
			}
			return nil
		})
	}()
	resA, err := loadgen.Run(h.ctx, loadgen.Spec{Rate: 10, Requests: 120, Seed: 42}, send)
	if err != nil {
		stopCal()
	}
	if calErr := <-calibrated; err == nil {
		err = calErr
	}
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if resA.Errors > 0 || status5xx.Load() > 0 {
		return fmt.Errorf("baseline: %d errors, %d 5xx (want 0)", resA.Errors, status5xx.Load())
	}
	log.Printf("churn baseline: predicted p99 %v vs observed %v at %.1f q/s — within 2 buckets",
		time.Duration(cal.PredictedP99).Round(time.Millisecond), time.Duration(cal.ObservedP99).Round(time.Millisecond), cal.Rate)

	// The ramp: 40 q/s exceeds one replica's 25 q/s, so the controller
	// must scale out. A watcher, polling until the ramp ends, records
	// the pool's excursion.
	maxLive, maxDesired := 1, 0
	watchCtx, stopWatch := context.WithCancel(h.ctx)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		_ = eventually(watchCtx, "the end of the ramp", 150*time.Millisecond, func() error {
			if st, err := status(); err == nil {
				maxLive, maxDesired = max(maxLive, st.Live), max(maxDesired, st.Desired)
			}
			return errors.New("still ramping")
		})
	}()
	resB, err := loadgen.Run(h.ctx, loadgen.Spec{Rate: 4, RampTo: 40, Requests: 450, Seed: 7}, send)
	stopWatch()
	<-watched
	if err != nil {
		return fmt.Errorf("ramp load: %w", err)
	}
	if resB.Errors > 0 || status5xx.Load() > 0 {
		return fmt.Errorf("ramp: %d errors, %d 5xx (want 0)", resB.Errors, status5xx.Load())
	}
	if maxLive < 2 {
		return fmt.Errorf("ramp: pool never scaled out (max live %d)", maxLive)
	}
	if maxLive > 3 || maxDesired > 3 {
		return fmt.Errorf("ramp: bounds violated (max live %d, max desired %d, cap 3)", maxLive, maxDesired)
	}
	log.Printf("churn ramp 4→40 q/s: pool peaked at %d replicas (cap 3), 0 client 5xx across %d requests", maxLive, resA.Sent+resB.Sent)

	// The load stops: the down-stable streak plus cooldown must walk
	// the pool back to min without ever undershooting it.
	drainCtx, stopDrain := context.WithTimeout(h.ctx, 60*time.Second)
	defer stopDrain()
	belowMin := false
	err = eventually(drainCtx, "the pool back to 1 replica", 300*time.Millisecond, func() error {
		st, err := status()
		if err == nil && st.Live != 1 {
			belowMin = belowMin || st.Live < 1
			err = fmt.Errorf("live %d", st.Live)
		}
		return err
	})
	if belowMin {
		return fmt.Errorf("drain: pool fell below min")
	}
	if err != nil {
		return err
	}
	log.Printf("churn drain: pool back to 1 replica after the ramp")

	m, err := h.scrape(scaler.url)
	if err != nil {
		return err
	}
	return m.positive(`sirius_autoscale_decisions_total{action="up"}`, `sirius_autoscale_decisions_total{action="down"}`)
}

func main() {
	log.SetPrefix("clustersmoke: ")
	if err := run(); err != nil {
		log.Printf("FAIL: %v", err)
		os.Exit(1)
	}
}
