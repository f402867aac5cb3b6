package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sirius/internal/batch"
	"sirius/internal/mat"
	"sirius/internal/sirius"
)

// runConfig is one workload run, as the command line asked for it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measured time, split between the phases by split()
	trace    bool    // also run the paced phase, the traced phase and the layer replay
	smoke    bool    // tiny inputs and one set-up, for the test suite
	traceOut string  // where to write the spans ("" = nowhere)
}

// setupRepeats is how often an untraced run boots the tiers; setup_s is
// the median, so one slow boot does not read as a regression.
const setupRepeats = 3

// phaseCount is the per-phase request tally of the result.
type phaseCount struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
}

// result is everything one run measured. The result line the contract
// asks for is a projection of it (see resultLine).
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Mismatches  int                `json:"oracle_mismatches"`
	Mismatch    string             `json:"first_mismatch,omitempty"`
	Failure     string             `json:"first_failure,omitempty"`
	Rejected    int                `json:"inputs_rejected,omitempty"` // drawn inputs the tiers cannot answer correctly, left out
	Phases      []phaseCount       `json:"phases"`
	Metrics     map[string]float64 `json:"metrics"`
	Unsupported []string           `json:"unsupported_percentiles,omitempty"` // fewer than minBeyond samples beyond
	TierErrors  map[string]int     `json:"tier_error_log_lines,omitempty"`    // what the tiers' HTTP servers logged, by tier
	TierError   string             `json:"first_tier_error,omitempty"`
	Ledger      []ledgerRow        `json:"ledger,omitempty"`
}

// split divides the measured seconds between the phases. An untraced
// run spends all of them in the closed loop, which is where every gated
// metric comes from. A run with -trace 1 measures for the same total,
// so it costs no more wall time: a shorter closed loop, then the paced
// phase, the traced phase and the replay, all of which feed ungated
// numbers only.
func split(cfg runConfig) (closed, paced, traced, replay time.Duration) {
	part := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }
	if cfg.trace {
		return part(0.3), part(0.4), part(0.2), part(0.1)
	}
	return part(1), 0, 0, 0
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// counters is a snapshot of what the process and the batch scheduler
// have done so far; the closed phase reports the difference of two.
type counters struct {
	cpu       time.Duration
	mem       runtime.MemStats
	batch     batch.Stats
	waitSum   float64 // sirius_batch_queue_wait_seconds_sum
	waitCount float64
}

func snapshot(t *tiers) counters {
	c := counters{cpu: cpuTime()}
	runtime.ReadMemStats(&c.mem)
	if t.pipeline != nil && t.pipeline.Batcher() != nil {
		c.batch = t.pipeline.Batcher().Stats()
		c.waitSum, c.waitCount = scrape(t.server, "sirius_batch_queue_wait_seconds")
	}
	return c
}

// scrape reads a histogram's _sum and _count from the server's own
// registry, in the text form /metrics serves.
func scrape(s *sirius.Server, family string) (sum, count float64) {
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case family + "_sum":
			sum, _ = strconv.ParseFloat(val, 64)
		case family + "_count":
			count, _ = strconv.ParseFloat(val, 64)
		}
	}
	return sum, count
}

// runWorkload is one whole run: set-up, warm-up, closed phase, and with
// cfg.trace the paced phase, the traced phase and the layer replay.
func runWorkload(cfg runConfig) (result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Metrics: map[string]float64{}}
	m := res.Metrics
	// The kernels' worker pool lives as long as the process; start it now
	// so its workers are not mistaken for a leak.
	mat.Parallel(mat.Workers(), 1, func(lo, hi int) {})
	goroutinesBefore := runtime.NumGoroutine()

	// Set-up, repeated: build models, corpus and indexes and boot the
	// tiers. The oracle and the inputs are the benchmark's own work and
	// are not part of it.
	repeats := setupRepeats
	if cfg.trace || cfg.smoke {
		repeats = 1
	}
	var t *tiers
	var setupS, heapMB []float64
	for k := 0; k < repeats; k++ {
		if t != nil {
			t.close()
			t = nil
		}
		debug.FreeOSMemory() // every set-up starts from a collected heap
		begin := time.Now()
		var err error
		if t, err = wl.boot(cfg.smoke); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(begin).Seconds())
		heapMB = append(heapMB, liveHeapMB())
	}
	closed := false
	defer func() {
		if !closed {
			t.close()
		}
	}()
	m["setup_s"], m["setup_heap_mb"] = p50(setupS), p50(heapMB)

	ops, err := wl.ops(t, cfg.seed, cfg.smoke)
	if err != nil {
		return res, fmt.Errorf("inputs: %w", err)
	}
	if !cfg.trace {
		t.full = nil // only the replay needs the oracle index; do not let it pad the heap
	}
	cl := newClient(t.url, ops)
	defer cl.close()
	ctx := context.Background()
	closedFor, pacedFor, _, _ := split(cfg)
	warm := time.Second
	if cfg.smoke {
		warm = 100 * time.Millisecond
	}
	// One request order per phase, each a pure function of the seed.
	order := func(salt int64) []int { return passOrder(len(ops), 1<<16, cfg.seed*8+salt) }

	phases := []phase{runClosed(ctx, "warm", warm, order(0), cl.send)}
	runtime.GC()
	before := snapshot(t)
	closedPh := runClosed(ctx, "closed", closedFor, order(1), cl.send)
	after := snapshot(t)
	phases = append(phases, closedPh)
	closedMetrics(&res, wl, ops, closedPh, before, after)

	if cfg.trace {
		cutoff := 2*pacedFor + 5*wl.limit
		if cfg.smoke {
			cutoff = time.Minute // a smoke pass checks the wiring, under the race detector too, not whether the rate is held
		}
		pacedPh := runPaced(ctx, "paced", poissonSchedule(wl.rate, pacedFor, cfg.seed*8+2), cutoff, order(3), cl.send)
		pacedMetrics(&res, wl, pacedPh)
		tracedPh, err := tracedRun(ctx, cfg, wl, t, cl, ops, order(4), closedPh, pacedPh, &res)
		if err != nil {
			return res, err
		}
		phases = append(phases, pacedPh, tracedPh)
	}

	cl.close()
	t.close()
	closed = true
	res.TierErrors, res.TierError, res.Rejected = t.errors.lines, t.errors.first, t.rejected
	// Connection goroutines end just after their sockets close.
	leaked := runtime.NumGoroutine() - goroutinesBefore
	for wait := 0; leaked > 0 && wait < 50; wait++ {
		time.Sleep(10 * time.Millisecond)
		leaked = runtime.NumGoroutine() - goroutinesBefore
	}
	m["process.goroutines_leaked"] = float64(leaked)
	m["process.peak_rss_mb"] = peakRSSMB()

	tally(&res, phases[1:]) // the warm-up is shown, not counted
	for _, ph := range phases {
		res.Phases = append(res.Phases, phaseCount{Name: ph.name, Attempted: ph.attempted(),
			Succeeded: ph.attempted() - ph.failed(), Failed: ph.failed(), WallS: ph.wall.Seconds()})
	}
	sort.Strings(res.Unsupported)
	return res, nil
}

// tail stores a percentile and notes it when too few samples lie beyond
// it to call it a tail.
func (res *result) tail(name string, sorted []float64, p float64) {
	v, beyond := percentile(sorted, p)
	res.Metrics[name] = v
	if !supported(beyond) {
		res.Unsupported = append(res.Unsupported, fmt.Sprintf("%s (n=%d, %d beyond)", name, len(sorted), beyond))
	}
}

// closedMetrics is everything the closed phase yields: the gated
// throughput, latency and CPU numbers, the stage split its replies
// carry, and what the process and the batch scheduler did meanwhile.
func closedMetrics(res *result, wl workload, ops []op, ph phase, before, after counters) {
	m := res.Metrics
	lat := sortedCopy(ph.latencies())
	done := max(float64(len(lat)), 1)
	m["closed_qps"] = float64(len(lat)) / ph.wall.Seconds()
	res.tail("closed_p50_ms", lat, 0.50)
	res.tail("closed_p90_ms", lat, 0.90)
	m["cpu_ms_per_op"] = ms(after.cpu-before.cpu) / done
	m["client.p99_ms"], _ = percentile(lat, 0.99)
	m["client.p999_ms"], _ = percentile(lat, 0.999)
	m["client.samples"] = float64(len(lat))

	var firstPartial, reqBytes []float64
	for _, s := range ph.samples {
		reqBytes = append(reqBytes, float64(ops[s.op].reqBytes))
		if s.out.firstPartial > 0 {
			firstPartial = append(firstPartial, ms(s.out.firstPartial))
		}
	}
	m["first_partial_p50_ms"] = p50(firstPartial)
	m["client.req_bytes_per_op"] = mean(reqBytes)
	stageMetrics(m, ph.samples, wl.name == "voice_dnn_i8")

	m["process.alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / done
	m["process.mallocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / done
	m["process.gc_pause_ms_per_s"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / ph.wall.Seconds()
	if b := after.batch.Batches - before.batch.Batches; b > 0 {
		m["batch.coalesce_ratio"] = float64(after.batch.Requests-before.batch.Requests) / float64(b)
		m["batch.frames_per_batch"] = float64(after.batch.Frames-before.batch.Frames) / float64(b)
	}
	if n := after.waitCount - before.waitCount; n > 0 {
		m["batch.queue_wait_ms_mean"] = (after.waitSum - before.waitSum) / n * 1000
	}
}

// pacedMetrics is what the open loop yields: latency from the due time,
// the share of requests that missed the workload's limit (failed and
// never-sent ones included), and how late the generator itself ran.
func pacedMetrics(res *result, wl workload, ph phase) {
	lat := sortedCopy(ph.latencies())
	res.tail("paced_p50_ms", lat, 0.50)
	res.tail("paced_p90_ms", lat, 0.90)
	missed := ph.failed()
	var lag []float64
	for _, s := range ph.samples {
		lag = append(lag, ms(s.start-s.due))
		if !s.out.failed && s.latency() > wl.limit {
			missed++
		}
	}
	res.Metrics["paced_miss_share"] = float64(missed) / float64(max(ph.attempted(), 1))
	res.Metrics["client.sched_lag_ms_p90"] = p90(lag)
}

// tally counts requests, failures and oracle verdicts over the measured
// phases.
func tally(res *result, measured []phase) {
	var replies, correct, partial int
	for _, ph := range measured {
		res.Attempted += ph.attempted()
		res.Failed += ph.failed()
		if ph.unsent > 0 && res.Failure == "" {
			res.Failure = fmt.Sprintf("%s: %d requests still unsent at the cutoff", ph.name, ph.unsent)
		}
		for _, s := range ph.samples {
			switch {
			case s.out.failed:
				if res.Failure == "" {
					res.Failure = ph.name + ": " + s.out.failure
				}
				continue
			case s.out.mismatch != "":
				res.Mismatches++
				if res.Mismatch == "" {
					res.Mismatch = s.out.mismatch
				}
			}
			replies++
			if s.out.correct {
				correct++
			}
			if s.out.partial {
				partial++
			}
		}
	}
	res.Correct = res.Mismatches == 0
	res.Metrics["fail_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Metrics["correct_share"] = float64(correct) / float64(max(replies, 1))
	res.Metrics["shard.partial_share"] = float64(partial) / float64(max(replies, 1))
}

// stageMetrics reads the per-stage medians out of the latency objects
// of the replies: the pipeline already times its stages, the benchmark
// only reads them.
func stageMetrics(m map[string]float64, samples []sample, dnn bool) {
	cols := map[string][]float64{}
	add := func(name string, d time.Duration) { cols[name] = append(cols[name], ms(d)) }
	var hits []float64
	for _, s := range samples {
		l := s.out.lat
		if s.out.failed || l.Total == 0 {
			continue
		}
		add("sirius.process_ms_p50", l.Total)
		if l.ASR > 0 {
			add("asr.total_ms_p50", l.ASR)
			add("audio.mfcc_ms_p50", l.ASRFeature)
			add("hmm.search_ms_p50", l.ASRSearch)
			if dnn {
				add("dnn.score_i8_ms_p50", l.ASRScoring)
			} else {
				add("gmm.score_ms_p50", l.ASRScoring)
			}
		}
		if l.QA > 0 {
			add("qa.total_ms_p50", l.QA)
			add("nlp.stemmer_ms_p50", l.QAStemming)
			add("nlp.regex_ms_p50", l.QARegex)
			add("nlp.crf_ms_p50", l.QACRF)
			add("search.retrieval_ms_p50", l.QARetrieval)
			hits = append(hits, float64(l.QAFilterHits))
		}
		if l.IMM > 0 {
			add("imm.total_ms_p50", l.IMM)
			add("vision.fe_ms_p50", l.IMMFE)
			add("vision.fd_ms_p50", l.IMMFD)
			add("imm.ann_ms_p50", l.IMMSearch)
		}
	}
	for name, xs := range cols {
		m[name] = p50(xs)
	}
	m["qa.filter_hits_per_op"] = mean(hits)
}

// tracedRun is the part of a run that exists only with -trace 1: the
// closed phase again with span recording on at every tier boundary,
// then the layer replay, then the numbers both produce.
func tracedRun(ctx context.Context, cfg runConfig, wl workload, t *tiers, cl *client, ops []op, order []int, closedPh, pacedPh phase, res *result) (phase, error) {
	m := res.Metrics
	_, _, tracedFor, replayFor := split(cfg)
	tr := newTracer()
	t.trace(tr)
	cl.tr = tr
	tracedPh := runClosed(ctx, "traced", tracedFor, order, cl.send)
	cl.tr = nil
	t.trace(nil)

	// Index the HTTP spans by request.
	type request struct {
		client, front *span
		backends      []span
		leaves        []span
	}
	reqs := map[string]*request{}
	at := func(id string) *request {
		if reqs[id] == nil {
			reqs[id] = &request{}
		}
		return reqs[id]
	}
	spans := tr.all()
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanClient:
			at(s.Req).client = s
		case spanFrontend:
			at(s.Req).front = s
		case spanBackend:
			at(s.Req).backends = append(at(s.Req).backends, *s)
		case spanLeaf:
			at(s.Req).leaves = append(at(s.Req).leaves, *s)
		}
	}
	var clientSelf, frontSelf, scatterWait, relaySelf, serverSelf, leafMs, leafBytes []float64
	var leafRows [][]time.Duration // per request, the spans of its fan-out arms
	backendCalls, frontCalls := 0, 0
	for _, s := range tracedPh.samples {
		id := reqID(tracedPh.name, s.seq)
		r := reqs[id]
		if s.out.failed || r == nil || r.client == nil || r.front == nil {
			continue
		}
		frontCalls++
		clientSelf = append(clientSelf, ms(r.client.dur()-r.front.dur()))
		var slowest time.Duration
		for _, c := range append(r.backends, r.leaves...) {
			slowest = max(slowest, c.dur())
		}
		frontSelf = append(frontSelf, ms(r.front.dur()-slowest))
		backendCalls += len(r.backends)
		switch {
		case len(r.leaves) > 0:
			scatterWait = append(scatterWait, ms(slowest))
			row := make([]time.Duration, 0, searchShards)
			for _, l := range r.leaves {
				leafMs = append(leafMs, ms(l.dur()))
				leafBytes = append(leafBytes, float64(l.BytesOut))
				row = append(row, l.dur())
			}
			if len(row) == searchShards {
				leafRows = append(leafRows, row)
			}
		case ops[s.op].path == "/v1/stream":
			relaySelf = append(relaySelf, ms(r.front.dur()-slowest))
		case len(r.backends) > 0:
			// The stage split hangs under the backend span that answered.
			b := r.backends[len(r.backends)-1]
			serverSelf = append(serverSelf, ms(b.dur()-s.out.lat.Total))
			for _, sp := range stageSpans(b, s.out.lat, wl.name == "voice_dnn_i8") {
				tr.add(sp)
			}
		}
	}
	if len(leafMs) > 0 {
		m["cluster.attempts_per_query"] = float64(len(leafMs)) / searchShards / float64(max(frontCalls, 1))
		m["cluster.scatter_wait_ms_p50"] = p50(scatterWait)
		m["cluster.scatter_self_ms_p50"] = p50(frontSelf)
		m["shard.leaf_ms_p50"] = p50(leafMs)
		m["shard.resp_bytes_per_leaf"] = mean(leafBytes)
	} else {
		m["cluster.attempts_per_query"] = float64(backendCalls) / float64(max(frontCalls, 1))
	}
	m["client.self_ms_p50"] = p50(clientSelf)
	m["cluster.frontend_self_ms_p50"] = p50(frontSelf)
	m["cluster.stream_relay_self_ms_p50"] = p50(relaySelf)
	m["sirius.server_self_ms_p50"] = p50(serverSelf)
	if base := m["closed_p50_ms"]; base > 0 {
		m["trace.overhead_share"] = p50(tracedPh.latencies())/base - 1
	}

	// Layer replay: the same inputs through each module's public functions.
	var k *kit
	if t.pipeline != nil {
		kcfg := serverConfig()
		if wl.name == "voice_dnn_i8" {
			kcfg = dnnConfig()
		}
		var err error
		if k, err = newKit(kcfg); err != nil {
			return tracedPh, fmt.Errorf("layer replay: %w", err)
		}
	}
	rp := runReplay(t, k, ops, order, replayFor, tr)
	if rp.mismatch != "" {
		res.Mismatches++
		if res.Mismatch == "" {
			res.Mismatch = rp.mismatch
		}
	}
	m["asr.frames_per_op"] = mean(rp.counts["asr.frames"])
	m["asr.rtf_p50"] = p50(rp.counts["asr.rtf"])
	m["asr.stream_push_ms_p50"] = p50(rp.ms["asr.Stream.Push"])
	m["audio.stream_extract_ms_p50"] = p50(rp.ms["audio.StreamExtractor.Push"])
	m["asr.stream_finish_ms_p50"] = p50(rp.ms["asr.Stream.Finish"])
	m["asr.stream_partials_per_session"] = mean(rp.counts["asr.partials"])
	m["shard.exec_ms_p50"] = p50(rp.ms["shard.Exec"])
	m["shard.merge_ms_p50"] = p50(rp.ms["shard.Merge"])
	m["shard.candidates_per_query"] = mean(rp.counts["shard.candidates"])
	// A stream reply carries no latency object: its stage split is the
	// one asr.Stream.Finish returned during the replay.
	for _, stage := range []string{"asr.total", "audio.mfcc", "gmm.score", "hmm.search"} {
		if xs := rp.ms[stage]; len(xs) > 0 {
			m[stage+"_ms_p50"] = p50(xs)
		}
	}

	pred, err := predictPaced(pacedPh, closedPh, leafRows)
	if err != nil {
		return tracedPh, fmt.Errorf("dcsim: %w", err)
	}
	m["dcsim.pred_paced_p90_ms"] = ms(pred)
	if measured := m["paced_p90_ms"]; measured > 0 {
		m["dcsim.model_err_share"] = math.Abs(ms(pred)-measured) / measured
	}

	// The ledger covers the traced requests only: the replay's direct
	// calls have no client span to be a share of.
	var traced []span
	for _, s := range tr.all() {
		if strings.HasPrefix(s.Req, tracedPh.name+"-") {
			traced = append(traced, s)
		}
	}
	res.Ledger = ledger(traced)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return tracedPh, fmt.Errorf("writing spans: %w", err)
		}
	}
	return tracedPh, nil
}

// stageSpans turns a reply's latency object into spans under the backend
// span that produced it. Only durations are known, so stages are laid
// end to end: the pipeline runs them one after another.
func stageSpans(backend span, l sirius.Latency, dnn bool) []span {
	process := span{Req: backend.Req, Name: spanProcess, Parent: spanBackend, Start: backend.End - int64(l.Total), End: backend.End}
	out := []span{process}
	lay := func(parent span, names []string, durs []time.Duration) {
		at := parent.Start
		for i, name := range names {
			if durs[i] > 0 {
				out = append(out, span{Req: backend.Req, Name: name, Parent: parent.Name, Start: at, End: at + int64(durs[i])})
				at += int64(durs[i])
			}
		}
	}
	lay(process, []string{"asr", "imm", "qa"}, []time.Duration{l.ASR, l.IMM, l.QA})
	score := "gmm.score"
	if dnn {
		score = "dnn.score_i8"
	}
	for _, s := range append([]span(nil), out[1:]...) {
		switch s.Name {
		case "asr":
			lay(s, []string{"audio.mfcc", score, "hmm.search"}, []time.Duration{l.ASRFeature, l.ASRScoring, l.ASRSearch})
		case "imm":
			lay(s, []string{"vision.fe", "vision.fd", "imm.ann"}, []time.Duration{l.IMMFE, l.IMMFD, l.IMMSearch})
		case "qa":
			lay(s, []string{"nlp.stemmer", "nlp.regex", "nlp.crf", "search.retrieval"}, []time.Duration{l.QAStemming, l.QARegex, l.QACRF, l.QARetrieval})
		}
	}
	return out
}

// header is what a result records about where it was measured.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func newHeader() header {
	h := header{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
