// Command sirius-loadgen drives a running Sirius service with an
// open-loop Poisson stream of text queries — a mix of questions (the VQ
// path) and device commands (the VC path) — and reports the latency
// distribution overall, per query kind, and per target: mean, p50, p95,
// p99, p999, max, from the same telemetry histograms the server exports
// at /metrics. The empirical companion to the M/M/1 analysis behind the
// paper's Fig 17, shaped like the per-service tables of Figs 7-9.
//
// Targets: a single -addr pointed at a sirius-frontend load-tests the
// whole cluster; repeated -addr flags spray round-robin across several
// servers and report each target's percentiles alongside the merged
// histogram, so one sick replica can't hide inside the pool's tail.
//
// Usage:
//
//	sirius-loadgen -addr http://localhost:8080 -rate 50 -n 500
//	sirius-loadgen -addr http://h1:8080 -addr http://h2:8080 -rate 50 -n 500
//	sirius-loadgen -addr http://lb:8090 -rate 50 -n 500 -voice 0.5
//
// Queries are JSON POSTs to /v1/query. -voice sends that fraction of the
// stream as synthesized WAV recordings (exercising the ASR path and any
// cross-request scoring batcher).
//
// Against a server running admission control (-max-inflight) or
// deadlines (-timeout), shed (429 overloaded) and timed-out (503
// timeout) replies are counted separately from hard errors and the
// shed/timeout rates are reported after the run. -deadline attaches an
// X-Sirius-Timeout-Ms header so each query carries its own budget.
//
// -search retargets the stream at the sharded search tier: each request
// is a POST /v1/search for the top 10 against a frontend aggregator
// (-deadline becomes the X-Sirius-Shard-Budget-Ms per-shard budget),
// and the report adds the partial-result rate — the fraction of
// answered queries that dropped at least one late shard. -stream sends
// every query as a /v1/stream session in 200 ms chunks.
//
// Observability: the run tracks a client-side SLO (99% under 500 ms;
// the report prints compliance and burn next to the
// latency table), -slow-traces N fetches the N slowest requests' span
// trees from the target's /debug/traces at the end of the run (against
// a frontend these are the stitched cross-tier waterfalls), and
// -debug-addr serves the in-flight run's own /metrics (with exemplars)
// and /slo, among the operational routes every binary serves, so a long
// soak can be scraped like any other tier.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/asr"
	"sirius/internal/cluster"
	"sirius/internal/kb"
	"sirius/internal/loadgen"
	"sirius/internal/shard"
	"sirius/internal/sirius"
	"sirius/internal/telemetry"
)

// The run's fixed shape: top-k per -search query and audio samples per
// -stream chunk (200 ms at 16 kHz).
const (
	searchK     = 10
	streamChunk = 3200
)

// addrFlags collects repeated -addr targets.
type addrFlags []string

func (a *addrFlags) String() string { return strings.Join(*a, ",") }
func (a *addrFlags) Set(v string) error {
	*a = append(*a, strings.TrimRight(v, "/"))
	return nil
}

func main() {
	var addrs addrFlags
	flag.Var(&addrs, "addr", "target base URL (a server or a frontend); repeat to spray several targets")
	rate := flag.Float64("rate", 20, "arrival rate (queries/second)")
	ramp := flag.Float64("ramp", 0, "final arrival rate: the instantaneous rate sweeps linearly from -rate to this over the run (0 = constant)")
	n := flag.Int("n", 200, "total queries to send")
	seed := flag.Int64("seed", 1, "arrival-process seed")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	voice := flag.Float64("voice", 0, "fraction of queries sent as synthesized WAV recordings (0..1)")
	deadline := flag.Duration("deadline", 0, "per-query X-Sirius-Timeout-Ms deadline the server enforces (0 = none)")
	slowTraces := flag.Int("slow-traces", 0, "after the run, fetch and print the waterfalls of the N slowest requests' traces")
	debugAddr := flag.String("debug-addr", "", "serve /metrics (with exemplars) and /slo for the in-flight run on this address (\"\" = off)")
	searchMode := flag.Bool("search", false, "drive the sharded search tier: POST /v1/search queries against a frontend and report the partial-result rate")
	streamMode := flag.Bool("stream", false, "drive the streaming ASR path: every query becomes a chunked /v1/stream session; reports first-partial vs final latency percentiles")
	flag.Parse()
	if len(addrs) == 0 {
		addrs = addrFlags{"http://localhost:8080"}
	}

	// The workload interleaves questions and commands so the report
	// separates the two paths' tails — pooled, the fast action path
	// masks the answer path's p99.
	type query struct {
		text    string
		kind    string
		samples []float64 // non-nil: send as a WAV recording (ASR path)
	}
	var queries []query
	for _, q := range kb.VoiceQueries {
		queries = append(queries, query{text: q.Text, kind: string(sirius.KindAnswer)})
	}
	for _, q := range kb.VoiceCommands {
		queries = append(queries, query{text: q.Text, kind: string(sirius.KindAction)})
	}
	if *voice > 0 {
		// Pre-synthesize recordings outside the timed loop so the load
		// generator measures serving latency, not synthesis. Every
		// ceil(1/voice)-th query goes out as audio.
		lex, _ := kb.BuildLexicon()
		stride := int(1 / *voice)
		if stride < 1 {
			stride = 1
		}
		for i := range queries {
			if i%stride != 0 {
				continue
			}
			samples, err := asr.SynthesizeText(lex, queries[i].text, int64(100+i))
			if err != nil {
				log.Fatalf("synthesizing %q: %v", queries[i].text, err)
			}
			queries[i].samples = samples
		}
	}

	var sheds, timeouts atomic.Int64
	client := &http.Client{Timeout: *timeout}
	reqIDs := make([]string, *n)
	send := func(i int) (string, string, error) {
		q := queries[i%len(queries)]
		target := addrs[i%len(addrs)]
		body, ctype, err := sirius.BuildJSONQuery(q.samples, nil, q.text)
		if err != nil {
			return q.kind, target, err
		}
		req, err := http.NewRequest(http.MethodPost, target+"/v1/query", body)
		if err != nil {
			return q.kind, target, err
		}
		req.Header.Set("Content-Type", ctype)
		if *deadline > 0 {
			req.Header.Set("X-Sirius-Timeout-Ms", fmt.Sprintf("%d", deadline.Milliseconds()))
		}
		resp, err := client.Do(req)
		if err != nil {
			return q.kind, target, err
		}
		defer resp.Body.Close()
		if i < len(reqIDs) {
			reqIDs[i] = resp.Header.Get("X-Request-Id")
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return q.kind, target, err
		}
		// Shed and deadline rejections are a provisioning signal, not a
		// serving bug: tally them apart from hard errors.
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			sheds.Add(1)
		case http.StatusServiceUnavailable:
			timeouts.Add(1)
		}
		if resp.StatusCode != http.StatusOK {
			return q.kind, target, fmt.Errorf("status %s", resp.Status)
		}
		return q.kind, target, nil
	}

	// Search mode swaps the query-path sender for the sharded search
	// tier's aggregator API: every request is a POST /v1/search against a
	// frontend, and responses tagged partial:true (a shard missed its
	// budget and was dropped from the merge) are tallied so the run
	// reports the tier's best-effort degradation rate alongside latency.
	var partials, searched atomic.Int64
	if *searchMode {
		send = func(i int) (string, string, error) {
			q := queries[i%len(queries)]
			target := addrs[i%len(addrs)]
			body, err := json.Marshal(shard.SearchRequest{Query: q.text, K: searchK})
			if err != nil {
				return "search", target, err
			}
			req, err := http.NewRequest(http.MethodPost, target+"/v1/search", bytes.NewReader(body))
			if err != nil {
				return "search", target, err
			}
			req.Header.Set("Content-Type", "application/json")
			if *deadline > 0 {
				req.Header.Set(cluster.ShardBudgetHeader, fmt.Sprintf("%d", deadline.Milliseconds()))
			}
			resp, err := client.Do(req)
			if err != nil {
				return "search", target, err
			}
			defer resp.Body.Close()
			if i < len(reqIDs) {
				reqIDs[i] = resp.Header.Get("X-Request-Id")
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				timeouts.Add(1)
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return "search", target, fmt.Errorf("status %s", resp.Status)
			}
			var sr shard.SearchResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				return "search", target, err
			}
			searched.Add(1)
			if sr.Partial {
				partials.Add(1)
			}
			return "search", target, nil
		}
	}

	// Stream mode turns every query into a chunked /v1/stream session.
	// Two clocks matter and the report keeps them apart: time to the
	// first stabilized partial (what a UI shows while the user talks)
	// and time to the final transcript. The final-latency clock matches
	// what the other modes measure, so the loadgen.Run percentiles stay
	// comparable; the first-partial histogram is the streaming win.
	var firstPartial, final telemetry.Histogram
	var streamsOK atomic.Int64
	if *streamMode {
		lex, _ := kb.BuildLexicon()
		for i := range queries {
			if queries[i].samples == nil {
				samples, err := asr.SynthesizeText(lex, queries[i].text, int64(100+i))
				if err != nil {
					log.Fatalf("synthesizing %q: %v", queries[i].text, err)
				}
				queries[i].samples = samples
			}
		}
		header := http.Header{}
		if *deadline > 0 {
			header.Set("X-Sirius-Timeout-Ms", fmt.Sprintf("%d", deadline.Milliseconds()))
		}
		send = func(i int) (string, string, error) {
			q := queries[i%len(queries)]
			target := addrs[i%len(addrs)]
			start := time.Now()
			sawPartial := false
			ev, err := sirius.StreamSamples(context.Background(), client, target+"/v1/stream", q.samples, streamChunk, header, func(ev sirius.StreamEvent) {
				if ev.Type == "partial" && !sawPartial {
					sawPartial = true
					firstPartial.Observe(time.Since(start))
				}
			})
			if err != nil {
				if strings.Contains(err.Error(), "overloaded") {
					sheds.Add(1)
				}
				return "stream", target, err
			}
			if ev.Type == "error" {
				if ev.Reason == "timeout" {
					timeouts.Add(1)
				}
				return "stream", target, fmt.Errorf("stream error: %s: %s", ev.Reason, ev.Message)
			}
			final.Observe(time.Since(start))
			streamsOK.Add(1)
			return "stream", target, nil
		}
	}

	// Client-side observability: every completed request lands in a local
	// exemplar-carrying histogram keyed by kind, which feeds a client-eye
	// SLO (the server's /slo says what it served; this says what callers
	// experienced, queueing included) and the slowest-trace report. Both
	// live on a registry that only -debug-addr serves.
	type slowReq struct {
		latency time.Duration
		id      string
		target  string
	}
	var (
		slowMu  sync.Mutex
		slowest []slowReq
	)
	reg := telemetry.NewRegistry()
	latVec := reg.NewHistogramVec("sirius_loadgen_latency_seconds",
		"Client-observed query latency by kind.", "kind")
	slo := telemetry.NewSLOFromVec(latVec)
	slo.Register(reg)
	onResult := func(i int, kind, target string, latency time.Duration, err error) {
		if err != nil {
			return
		}
		id := ""
		if i < len(reqIDs) {
			id = reqIDs[i]
		}
		if kind == "" {
			kind = "other"
		}
		latVec.With(kind).ObserveTrace(latency, id)
		if *slowTraces > 0 && id != "" {
			slowMu.Lock()
			slowest = append(slowest, slowReq{latency: latency, id: id, target: target})
			sort.Slice(slowest, func(a, b int) bool { return slowest[a].latency > slowest[b].latency })
			if len(slowest) > *slowTraces {
				slowest = slowest[:*slowTraces]
			}
			slowMu.Unlock()
		}
	}
	if *debugAddr != "" {
		mux := http.NewServeMux()
		telemetry.Mount(mux, telemetry.Ops{Metrics: reg, SLO: slo})
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("debug listener on %s (/metrics, /slo, /debug/pprof/)", *debugAddr)
	}

	if *ramp > 0 {
		log.Printf("driving %s ramping %.1f → %.1f q/s with %d queries over %d texts...", addrs.String(), *rate, *ramp, *n, len(queries))
	} else {
		log.Printf("driving %s at %.1f q/s with %d queries over %d texts...", addrs.String(), *rate, *n, len(queries))
	}
	res, err := loadgen.Run(context.Background(),
		loadgen.Spec{Rate: *rate, RampTo: *ramp, Requests: *n, Seed: *seed, OnResult: onResult}, send)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	snap := slo.Snapshot()
	fmt.Printf("\nclient SLO %.4g%% < %v: compliance %.4f, error budget remaining %.2f, burn 1m=%.2f 1h=%.2f\n",
		100*snap.Objective, telemetry.SLOTarget, snap.Compliance, snap.BudgetRemaining,
		snap.Burn["1m"], snap.Burn["1h"])
	if shed := sheds.Load(); shed > 0 {
		fmt.Printf("\nshed by admission control: %d/%d (%.1f%% of queries got 429 overloaded)\n",
			shed, *n, 100*float64(shed)/float64(*n))
	}
	if to := timeouts.Load(); to > 0 {
		fmt.Printf("\ndeadline-expired: %d/%d (%.1f%% of queries got 503 timeout)\n",
			to, *n, 100*float64(to)/float64(*n))
	}
	if ok := streamsOK.Load(); *streamMode && ok > 0 {
		fp, fin := &firstPartial, &final
		fmt.Printf("\nstreaming: %d/%d sessions finished; first-partial p50=%v p95=%v (%d sessions emitted partials), final p50=%v p95=%v\n",
			ok, *n,
			fp.Quantile(0.50).Round(time.Microsecond), fp.Quantile(0.95).Round(time.Microsecond), fp.Count(),
			fin.Quantile(0.50).Round(time.Microsecond), fin.Quantile(0.95).Round(time.Microsecond))
	}
	if got := searched.Load(); got > 0 {
		fmt.Printf("\npartial search results: %d/%d (%.1f%% of answered queries dropped at least one shard)\n",
			partials.Load(), got, 100*float64(partials.Load())/float64(got))
	}
	if *slowTraces > 0 {
		slowMu.Lock()
		tail := append([]slowReq(nil), slowest...)
		slowMu.Unlock()
		if len(tail) == 0 {
			fmt.Printf("\nno traced requests to report (targets did not return X-Request-Id)\n")
		} else {
			fmt.Printf("\nslowest %d traces (fetched from /debug/traces):\n", len(tail))
		}
		for _, s := range tail {
			fmt.Printf("\n%v  %s  %s\n", s.latency.Round(time.Microsecond), s.id, s.target)
			tr, err := fetchTrace(client, s.target, s.id)
			if err != nil {
				fmt.Printf("  trace unavailable: %v\n", err)
				continue
			}
			fmt.Println(tr.Waterfall())
		}
	}
	fmt.Printf("\n(compare with the M/M/1 prediction: R = 1/(mu - lambda) with mu = 1/mean service time)\n")
}

// fetchTrace pulls one request's span tree from a target's
// /debug/traces?id= lookup. Against a frontend the trace is the stitched
// cross-tier waterfall; against a server it is the backend's own tree.
// Traces live in a bounded ring, so a busy target may have evicted an
// old request by the time the run ends — that is reported, not fatal.
func fetchTrace(client *http.Client, target, id string) (*telemetry.Trace, error) {
	resp, err := client.Get(target + "/debug/traces?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var tr telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}
