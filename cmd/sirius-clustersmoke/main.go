// Command sirius-clustersmoke is the CI gate for the serving tier: it
// spawns a real 3-process cluster (1 sirius-frontend + 2 sirius-server
// backends) on loopback ports, waits for registration and readiness,
// issues text queries through the frontend (multipart /query and JSON
// /v1/query), asserts that an empty query relays the backend's
// structured error envelope, and asserts that /metrics shows both
// backends serving. Backend 2 runs under -max-inflight 1, and the
// smoke then exercises the request-lifecycle machinery against it
// directly: a voice query with a 1 ms X-Sirius-Timeout-Ms must come
// back as the 503 "timeout" envelope, a concurrent voice burst must
// shed with the 429 "overloaded" envelope plus Retry-After, and its
// /metrics must show sirius_timeouts_total and sirius_shed_total
// advancing.
//
// The streaming front door is smoked next: the same synthesized
// utterance goes through the frontend once as a one-shot /v1/query and
// once as a chunked /v1/stream session; the session must emit at least
// one stabilized partial whose frame count is strictly before the
// final's (proof the decode was incremental), the final transcript
// must equal the one-shot's, and cluster_streams_total /
// sirius_stream_sessions_total must go positive on their tiers.
//
// The smoke then stands up the sharded search tier against the same
// frontend: two sirius-server leaves (-shard 0/2 and 1/2) register as
// kind search, /v1/search scatter-gather must match the unsharded
// index's top-10 exactly (same documents, order, and scores), and after
// SIGTERMing shard 1 and replacing it with a -shard-delay-stalled leaf,
// a query under a 250 ms shard budget must still answer 200 with
// partial:true, shard 0's documents only, and a positive
// sirius_shard_partials_total on a lint-clean /metrics.
//
// With -autoscaler-bin set, a churn-under-load phase closes the run: a
// second, empty frontend comes up with a sirius-autoscaler owning its
// whole backend pool (replicas pinned to a known 25 q/s capacity via
// -query-delay 40ms). The smoke first holds a light steady load until
// the controller's dcsim-predicted p99 lands within 2 histogram buckets
// (2×) of the frontend's measured p99, then ramps the offered load ~10×
// (4 → 40 q/s): the pool must scale out past one replica without
// exceeding its max of 3, with zero client-visible 5xx, and once the
// ramp ends it must drain back to the min of 1 — with both up and down
// decisions counted on a lint-clean autoscaler /metrics.
//
// Everything runs under a hard deadline — on timeout the processes are
// killed and the gate fails rather than hangs. verify.sh runs this
// after the unit tests.
//
// Usage:
//
//	sirius-clustersmoke -server-bin ./sirius-server -frontend-bin ./sirius-frontend \
//	    [-autoscaler-bin ./sirius-autoscaler] [-timeout 240s]
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

// waitHTTP polls url until it returns wantStatus or the context ends.
func waitHTTP(ctx context.Context, client *http.Client, url string, wantStatus int) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == wantStatus {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			if err != nil {
				return fmt.Errorf("waiting for %s: %w (last error: %v)", url, ctx.Err(), err)
			}
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// waitBackendsReady polls the frontend's /backends until at least n of
// the backends it lists are ready (registered and passing the frontend's
// own health probe) and match, or the context ends. A backend answering
// its own /readyz says nothing about the frontend's view of it.
func waitBackendsReady(ctx context.Context, client *http.Client, frontURL string, match func(cluster.BackendStatus) bool, n int) error {
	for {
		var payload []byte
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, frontURL+"/backends", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			payload, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			var sts []cluster.BackendStatus
			_ = json.Unmarshal(payload, &sts) // an unreadable listing counts no backend
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
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d ready backends at %s: %w;\n--- /backends ---\n%s", n, frontURL, ctx.Err(), payload)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func run() (err error) {
	serverBin := flag.String("server-bin", "", "path to the sirius-server binary")
	frontendBin := flag.String("frontend-bin", "", "path to the sirius-frontend binary")
	autoscalerBin := flag.String("autoscaler-bin", "", "path to the sirius-autoscaler binary (empty skips the churn phase)")
	timeout := flag.Duration("timeout", 240*time.Second, "hard deadline for the whole smoke test")
	queries := flag.Int("queries", 12, "text queries to issue through the frontend")
	flag.Parse()
	if *serverBin == "" || *frontendBin == "" {
		return fmt.Errorf("both -server-bin and -frontend-bin are required")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}

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
	if err := waitBackendsReady(ctx, client, frontURL, func(st cluster.BackendStatus) bool {
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
	for i := 0; i < *queries; i++ {
		body, ctype, err := sirius.BuildMultipartQuery(nil, nil, texts[i%len(texts)])
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/query", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query %d: status %s", i, resp.Status)
		}
	}

	// The versioned endpoint must proxy end to end: a JSON /v1/query
	// through the frontend reaches a backend and answers.
	{
		body, ctype, err := sirius.BuildJSONQuery(nil, nil, "what is the capital of france")
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/query", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("v1 json query: %w", err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("v1 json query: status %s; body %s", resp.Status, payload)
		}
		var ans struct {
			Answer string `json:"answer"`
		}
		if err := json.Unmarshal(payload, &ans); err != nil {
			return fmt.Errorf("v1 json query: bad response %q: %w", payload, err)
		}
		log.Printf("/v1/query JSON answered %q", ans.Answer)
	}

	// An empty query through the frontend must come back as the
	// backend's structured error envelope, relayed verbatim.
	{
		body, ctype, err := sirius.BuildJSONQuery(nil, nil, "")
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/query", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("empty query: %w", err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("empty query: status %s, want 400; body %s", resp.Status, payload)
		}
		var env sirius.ErrorEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return fmt.Errorf("empty query: not an error envelope %q: %w", payload, err)
		}
		if env.Code != http.StatusBadRequest || env.Reason != "empty_query" || env.RequestID == "" {
			return fmt.Errorf("empty query: bad envelope %+v", env)
		}
		if got := resp.Header.Get("X-Request-Id"); got != env.RequestID {
			return fmt.Errorf("empty query: envelope request_id %q does not match X-Request-Id %q", env.RequestID, got)
		}
		log.Printf("error envelope relayed through the frontend: %+v", env)
	}

	resp, err := client.Get(frontURL + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, port := range []int{b1Port, b2Port} {
		want := fmt.Sprintf(`cluster_backend_requests_total{backend="127.0.0.1:%d",outcome="ok"}`, port)
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("frontend /metrics missing %q — backend :%d never served;\n--- metrics ---\n%s", want, port, metrics)
		}
	}
	log.Printf("both backends served traffic")

	// --- Observability smoke: stitching, breakdown, exemplars, SLO ---
	// One more query through the frontend, keeping its request id, must
	// yield a single stitched trace on the frontend's /debug/traces:
	// the frontend's own spans plus the backend's grafted (remote) span
	// tree, under the same request id, with monotonically non-negative
	// offsets (the stitch is anchored on span offsets, never wall
	// clocks, so inter-process skew must not show through).
	{
		body, ctype, err := sirius.BuildJSONQuery(nil, nil, "what is the capital of france")
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/query", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("traced query: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("traced query: status %s", resp.Status)
		}
		reqID := resp.Header.Get("X-Request-Id")
		if reqID == "" {
			return fmt.Errorf("traced query: response missing X-Request-Id")
		}
		tresp, err := client.Get(frontURL + "/debug/traces?id=" + reqID)
		if err != nil {
			return err
		}
		tpayload, _ := io.ReadAll(tresp.Body)
		tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			return fmt.Errorf("trace lookup %s: status %s; body %s", reqID, tresp.Status, tpayload)
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
			bresp, err := client.Get(fmt.Sprintf("http://127.0.0.1:%d/debug/breakdown", port))
			if err != nil {
				return err
			}
			bpayload, _ := io.ReadAll(bresp.Body)
			bresp.Body.Close()
			if bresp.StatusCode != http.StatusOK {
				return fmt.Errorf("backend :%d /debug/breakdown: status %s", port, bresp.Status)
			}
			var rep telemetry.BreakdownReport
			if err := json.Unmarshal(bpayload, &rep); err != nil {
				return fmt.Errorf("backend :%d /debug/breakdown: bad JSON %q: %w", port, bpayload, err)
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
		fresp, err := client.Get(frontURL + "/metrics")
		if err != nil {
			return err
		}
		fmetrics, _ := io.ReadAll(fresp.Body)
		fresp.Body.Close()
		if !strings.Contains(string(fmetrics), `# {trace_id="`) {
			return fmt.Errorf("frontend /metrics has no OpenMetrics exemplar;\n--- metrics ---\n%s", fmetrics)
		}
		for _, name := range []string{"sirius_slo_target_seconds", "sirius_slo_objective_ratio", "sirius_slo_burn_rate"} {
			if !strings.Contains(string(fmetrics), name) {
				return fmt.Errorf("frontend /metrics missing %s;\n--- metrics ---\n%s", name, fmetrics)
			}
		}
		for _, target := range []string{
			frontURL,
			fmt.Sprintf("http://127.0.0.1:%d", b1Port),
			fmt.Sprintf("http://127.0.0.1:%d", b2Port),
		} {
			mresp, err := client.Get(target + "/metrics")
			if err != nil {
				return err
			}
			mtext, _ := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			if err := telemetry.LintPrometheus(string(mtext)); err != nil {
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
	postVoice := func(timeoutMs string) (int, []byte, http.Header, error) {
		body, ctype, err := sirius.BuildMultipartQuery(samples, nil, "")
		if err != nil {
			return 0, nil, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b2URL+"/query", body)
		if err != nil {
			return 0, nil, nil, err
		}
		req.Header.Set("Content-Type", ctype)
		if timeoutMs != "" {
			req.Header.Set("X-Sirius-Timeout-Ms", timeoutMs)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, payload, resp.Header, nil
	}

	// A voice query carrying a 1 ms budget must be aborted mid-pipeline
	// and answered with the 503 "timeout" envelope.
	{
		status, payload, _, err := postVoice("1")
		if err != nil {
			return fmt.Errorf("deadline query: %w", err)
		}
		if status != http.StatusServiceUnavailable {
			return fmt.Errorf("deadline query: status %d, want 503; body %s", status, payload)
		}
		var env sirius.ErrorEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return fmt.Errorf("deadline query: not an error envelope %q: %w", payload, err)
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
		type reply struct {
			status     int
			payload    []byte
			retryAfter string
			err        error
		}
		replies := make(chan reply, burst)
		for i := 0; i < burst; i++ {
			go func() {
				status, payload, hdr, err := postVoice("")
				if err != nil {
					replies <- reply{err: err}
					return
				}
				replies <- reply{status: status, payload: payload, retryAfter: hdr.Get("Retry-After")}
			}()
		}
		for i := 0; i < burst; i++ {
			r := <-replies
			if r.err != nil {
				return fmt.Errorf("shed burst: %w", r.err)
			}
			if r.status != http.StatusTooManyRequests {
				continue
			}
			var env sirius.ErrorEnvelope
			if err := json.Unmarshal(r.payload, &env); err != nil {
				return fmt.Errorf("shed burst: 429 without an envelope %q: %w", r.payload, err)
			}
			if env.Code != http.StatusTooManyRequests || env.Reason != "overloaded" {
				return fmt.Errorf("shed burst: bad envelope %+v", env)
			}
			if r.retryAfter == "" {
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
	resp, err = client.Get(b2URL + "/metrics")
	if err != nil {
		return err
	}
	b2Metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, name := range []string{"sirius_timeouts_total", "sirius_shed_total"} {
		if !metricPositive(string(b2Metrics), name) {
			return fmt.Errorf("backend2 /metrics: %s not positive;\n--- metrics ---\n%s", name, b2Metrics)
		}
	}
	log.Printf("sirius_timeouts_total and sirius_shed_total advanced")

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
		body, ctype, err := sirius.BuildJSONQuery(streamSamples, nil, "")
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/query", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("one-shot voice query: %w", err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("one-shot voice query: status %s; body %s", resp.Status, payload)
		}
		var oneShot struct {
			Transcript string `json:"transcript"`
		}
		if err := json.Unmarshal(payload, &oneShot); err != nil {
			return fmt.Errorf("one-shot voice query: bad response %q: %w", payload, err)
		}
		if oneShot.Transcript == "" {
			return fmt.Errorf("one-shot voice query: empty transcript; body %s", payload)
		}

		var partials []sirius.StreamEvent
		final, err := sirius.StreamSamples(ctx, client, frontURL+"/v1/stream", streamSamples, 1600, nil, func(ev sirius.StreamEvent) {
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
		scrape := func(url string) (string, error) {
			resp, err := client.Get(url)
			if err != nil {
				return "", err
			}
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return string(text), nil
		}
		relayed, served := false, false
		for i := 0; i < 40 && !(relayed && served); i++ {
			if !relayed {
				mtext, err := scrape(frontURL + "/metrics")
				if err != nil {
					return err
				}
				relayed = metricPositive(mtext, `cluster_streams_total{outcome="ok"}`)
			}
			for _, port := range []int{b1Port, b2Port} {
				if served {
					break
				}
				btext, err := scrape(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
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

	// --- Quantized scoring smoke through the frontend ---
	// The same recording goes through /v1/query twice, once at each
	// precision. The int8 reply must carry precision:"int8" (proof the
	// field survived the relay and picked the quantized kernels), its
	// transcript must match fp64's (the parity guardrail, end to end),
	// and some backend's exposition must count the int8 query.
	{
		qText := "call mom"
		qSamples, err := asr.SynthesizeText(lex, qText, 13)
		if err != nil {
			return err
		}
		postPrec := func(prec string) (sirius.Response, error) {
			var r sirius.Response
			body, ctype, err := sirius.BuildJSONQueryPrecision(qSamples, nil, "", prec)
			if err != nil {
				return r, err
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/query", body)
			if err != nil {
				return r, err
			}
			req.Header.Set("Content-Type", ctype)
			resp, err := client.Do(req)
			if err != nil {
				return r, err
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return r, fmt.Errorf("precision %q query: status %s; body %s", prec, resp.Status, payload)
			}
			if err := json.Unmarshal(payload, &r); err != nil {
				return r, fmt.Errorf("precision %q query: bad response %q: %w", prec, payload, err)
			}
			return r, nil
		}
		fp, err := postPrec("fp64")
		if err != nil {
			return err
		}
		q8, err := postPrec("int8")
		if err != nil {
			return err
		}
		if fp.Precision != "fp64" || q8.Precision != "int8" {
			return fmt.Errorf("precision labels did not round-trip: fp64 query says %q, int8 query says %q", fp.Precision, q8.Precision)
		}
		if fp.Transcript == "" || fp.Transcript != q8.Transcript {
			return fmt.Errorf("int8 transcript %q diverged from fp64 %q", q8.Transcript, fp.Transcript)
		}
		counted := false
		for _, port := range []int{b1Port, b2Port} {
			mresp, err := client.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
			if err != nil {
				return err
			}
			mtext, _ := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			if metricPositive(string(mtext), `sirius_query_precision_total{precision="int8"}`) {
				counted = true
			}
		}
		if !counted {
			return fmt.Errorf(`no backend /metrics shows sirius_query_precision_total{precision="int8"} > 0`)
		}
		log.Printf("int8 voice query round-tripped the frontend: transcript %q matches fp64, precision counted", q8.Transcript)
	}

	// --- Sharded search tier smoke: 1 frontend + 2 search-shard leaves ---
	// Two sirius-server processes in leaf mode (-shard i/2) register with
	// the already-running frontend as kind search; /v1/search through the
	// frontend must reproduce the unsharded index's ranking exactly. Then
	// shard 1 is SIGTERMed (draining out of the pool) and replaced with a
	// deliberately slow leaf (-shard-delay), and a query carrying a 250 ms
	// shard budget must still answer 200 — partial:true with only shard
	// 0's documents — while sirius_shard_partials_total advances.
	doSearch := func(query string, k int, budgetMs string) (int, sharedSearchResponse, error) {
		var sr sharedSearchResponse
		body, err := json.Marshal(map[string]any{"query": query, "k": k})
		if err != nil {
			return 0, sr, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontURL+"/v1/search", bytes.NewReader(body))
		if err != nil {
			return 0, sr, err
		}
		req.Header.Set("Content-Type", "application/json")
		if budgetMs != "" {
			req.Header.Set("X-Sirius-Shard-Budget-Ms", budgetMs)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, sr, err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(payload, &sr); err != nil {
				return resp.StatusCode, sr, fmt.Errorf("bad /v1/search body %q: %w", payload, err)
			}
		}
		return resp.StatusCode, sr, nil
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
		if err := waitHTTP(ctx, client, fmt.Sprintf("http://127.0.0.1:%d/readyz", port), http.StatusOK); err != nil {
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
	if err := waitHTTP(ctx, client, fmt.Sprintf("http://127.0.0.1:%d/readyz", s3Port), http.StatusOK); err != nil {
		return err
	}
	// Wait for the frontend to see the replacement as ready.
	if err := waitBackendsReady(ctx, client, frontURL, func(st cluster.BackendStatus) bool {
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
		mresp, err := client.Get(frontURL + "/metrics")
		if err != nil {
			return err
		}
		mtext, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if !metricPositive(string(mtext), "sirius_shard_partials_total") {
			return fmt.Errorf("frontend /metrics: sirius_shard_partials_total not positive;\n--- metrics ---\n%s", mtext)
		}
		if err := telemetry.LintPrometheus(string(mtext)); err != nil {
			return fmt.Errorf("frontend /metrics fails lint with shard metrics: %w", err)
		}
	}
	log.Printf("sirius_shard_partials_total advanced and /metrics lints clean; cluster smoke OK")

	if *autoscalerBin != "" {
		if err := churnSmoke(ctx, client, *frontendBin, *serverBin, *autoscalerBin, &procs); err != nil {
			return err
		}
	}
	return nil
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
func churnSmoke(ctx context.Context, client *http.Client, frontendBin, serverBin, autoscalerBin string, procs *[]*proc) error {
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
		"-sim-requests", "256",
		"-server-arg", "-query-delay=40ms",
		"-server-arg", "-models="+filepath.Join(modelDir, "models.gob"),
	); err != nil {
		return fmt.Errorf("start autoscaler: %w", err)
	}

	// The controller's first tick spawns the min replica, which
	// self-registers; the frontend goes ready once it passes a probe.
	if err := waitHTTP(ctx, client, asURL+"/healthz", http.StatusOK); err != nil {
		return err
	}
	if err := waitHTTP(ctx, client, f2URL+"/readyz", http.StatusOK); err != nil {
		return err
	}
	log.Printf("churn: autoscaler on :%d manages frontend2 on :%d (1 replica up)", asPort, f2Port)

	getStatus := func() (autoscaleStatus, error) {
		var st autoscaleStatus
		resp, err := client.Get(asURL + "/autoscale")
		if err != nil {
			return st, err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("/autoscale: status %s", resp.Status)
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			return st, fmt.Errorf("/autoscale: bad JSON %q: %w", payload, err)
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
		body, ctype, err := sirius.BuildMultipartQuery(nil, nil, texts[i%len(texts)])
		if err != nil {
			return "", "", err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f2URL+"/query", body)
		if err != nil {
			return "", "", err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := client.Do(req)
		if err != nil {
			return "", "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			status5xx.Add(1)
		}
		if resp.StatusCode != http.StatusOK {
			return "", "", fmt.Errorf("status %s", resp.Status)
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
	mresp, err := client.Get(asURL + "/metrics")
	if err != nil {
		return err
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{
		`sirius_autoscale_decisions_total{action="up"}`,
		`sirius_autoscale_decisions_total{action="down"}`,
	} {
		if !metricPositive(string(mtext), name) {
			return fmt.Errorf("autoscaler /metrics: %s not positive;\n--- metrics ---\n%s", name, mtext)
		}
	}
	if err := telemetry.LintPrometheus(string(mtext)); err != nil {
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
