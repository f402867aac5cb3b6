// Command sirius-server runs the end-to-end Sirius IPA web service: it
// trains the acoustic models and CRF tagger on the synthetic substrates,
// builds the knowledge corpus and image database, and serves queries on
// POST /query (multipart form with "audio" WAV, "image" PNG, and/or
// "text" fields).
//
// Observability surface: Prometheus metrics at /metrics (tail buckets
// carry OpenMetrics exemplars pointing at the slow request's trace),
// JSON stats with tail percentiles and slow-trace ids at /stats, recent
// request traces at /debug/traces (?id=<request-id> looks one up;
// -trace-buffer sizes the ring; add ?trace=1 to a query to get its span
// tree inline), the measured stage/kernel cycle-accounting breakdown at
// /debug/breakdown, the latency SLO with burn rates at /slo (tuned by
// -slo-target/-slo-objective), liveness at /healthz and readiness at
// /readyz (readiness flips false during graceful drain), Go profiling
// at /debug/pprof/, and a JSON-lines access log on stderr.
//
// Backend mode: with -frontend the server joins a cluster — it
// registers itself with a sirius-frontend (retrying until the frontend
// is up), reports its in-flight load in the X-Sirius-Inflight response
// header, and on shutdown flips /readyz to 503 and deregisters before
// draining, so the router stops sending work ahead of the listener
// closing.
//
// Usage:
//
//	sirius-server [-addr :8080] [-engine gmm|dnn] [-drain 30s]
//	    [-frontend http://lb:8090] [-kinds asr,qa,imm] [-advertise http://me:8080]
//	    [-batch] [-batch-size 8] [-cache 256] [-workers N]
//	    [-max-inflight N] [-timeout 10s] [-quantize]
//
// -quantize flips the default acoustic scoring precision to int8 (the
// quantized GEMM path); individual requests override it either way with
// the "precision" field. The int8 model images are built at startup
// regardless, so per-request "precision":"int8" works without the flag.
//
// -max-inflight installs admission control: past N concurrent queries
// the server sheds load with a 429 "overloaded" envelope and a
// Retry-After header (the cluster frontend retries sheds on another
// backend). -timeout bounds each query's processing; one that expires
// is aborted mid-stage and answered with a 503 "timeout" envelope.
// Clients can tighten (never extend) the deadline per request with an
// X-Sirius-Timeout-Ms header.
//
// -workers sets the shared kernel worker-pool width used by every
// parallel kernel (GEMM, GMM bank sweep, image FE/FD/vote); 0 (the
// default) sizes the pool to runtime.NumCPU().
//
// Queries are served on POST /v1/query (and its legacy alias /query) in
// either encoding: multipart form data or application/json with base64
// "audio"/"image" fields. -batch turns on cross-request batched
// acoustic scoring; -cache answers repeated queries from a bounded LRU
// (look for the X-Sirius-Cache response header).
//
// Leaf mode: -shard i/N turns the binary into a search-shard leaf — it
// skips pipeline training entirely, builds only partition i of the
// N-way hash-partitioned knowledge corpus, serves POST /v1/shard/search
// (top-k candidates + local BM25 statistics), and registers with the
// frontend as kind "search" carrying its shard assignment. The
// frontend's /v1/search scatter-gathers across all N leaves.
// -shard-synth M swaps the kb corpus for M synthetic documents (the
// web-scale generator); -shard-delay injects a fixed stall per request
// for fault drills. Conversely -search-frontend makes a full backend
// route its QA retrieval through the sharded tier instead of its
// embedded index.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"sirius/internal/asr"
	"sirius/internal/cluster"
	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/sirius"
	"sirius/internal/telemetry"
)

// runLeaf serves one corpus partition as a search-shard leaf: no
// acoustic models, no pipeline — just the shard's index behind POST
// /v1/shard/search plus the standard operational surface (/healthz,
// /readyz, /metrics) and the same register/drain/deregister lifecycle
// as a full backend.
func runLeaf(spec string, synthDocs int, delay time.Duration, addr, advertise, frontend string, drain time.Duration) {
	si, sn, err := cluster.ParseShardSpec(spec)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("building shard %d/%d index...", si, sn)
	start := time.Now()
	var ix *search.Index
	if synthDocs > 0 {
		cfg := kb.DefaultSynthConfig()
		cfg.Docs = synthDocs
		ix = kb.BuildSynthShard(cfg, si, sn)
	} else {
		ix = kb.BuildCorpusShard(kb.DefaultCorpusConfig(), si, sn)
	}
	reg := telemetry.NewRegistry()
	leaf := shard.NewLeaf(ix, si, sn, reg)
	if delay > 0 {
		leaf.Delay = delay
		log.Printf("fault injection: every shard search delayed %v", delay)
	}
	log.Printf("shard %d/%d ready in %v (%d docs); listening on %s", si, sn, time.Since(start), ix.Len(), addr)

	var ready atomic.Bool
	ready.Store(true)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard/search", leaf)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{
		Addr:              addr,
		Handler:           telemetry.AccessLog(os.Stderr, mux),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	regInfo := cluster.Registration{URL: advertise, Kinds: cluster.KindSearch, Shard: si, Shards: sn}
	if regInfo.URL == "" {
		regInfo.URL = advertiseURL(addr)
	}
	regClient := &http.Client{Timeout: 5 * time.Second}
	regCtx, regCancel := context.WithCancel(context.Background())
	defer regCancel()
	if frontend != "" {
		go func() {
			for {
				if err := cluster.Register(regClient, frontend, regInfo); err == nil {
					log.Printf("registered with frontend %s as %s (shard %d/%d)", frontend, regInfo.URL, si, sn)
					return
				} else if regCtx.Err() != nil {
					return
				} else {
					log.Printf("frontend registration failed (will retry): %v", err)
				}
				select {
				case <-regCtx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining in-flight requests (deadline %v)", drain)
		ready.Store(false)
		regCancel()
		if frontend != "" {
			if err := cluster.Deregister(regClient, frontend, regInfo); err != nil {
				log.Printf("deregister: %v", err)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v (forcing close)", err)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("leaf stopped")
	}
}

// advertiseURL derives the URL peers should use to reach -addr when no
// explicit -advertise is given: an unspecified host becomes loopback.
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, port))
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	engine := flag.String("engine", "gmm", "acoustic model: gmm or dnn")
	modelCache := flag.String("models", "", "path to cache trained acoustic models (created on first run)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for draining in-flight requests")
	frontend := flag.String("frontend", "", "frontend base URL to register with (backend mode)")
	kinds := flag.String("kinds", "all", "stage pools this backend serves: comma-separated asr,qa,imm, or all")
	advertise := flag.String("advertise", "", "base URL peers reach this server at (default: derived from -addr)")
	batch := flag.Bool("batch", false, "coalesce concurrent requests' acoustic scoring into shared batched calls")
	batchSize := flag.Int("batch-size", 0, "max requests per scoring batch (0 = default)")
	cache := flag.Int("cache", 0, "query result cache capacity in entries (0 = disabled)")
	quantize := flag.Bool("quantize", false, "score acoustics with int8 kernels by default (requests can still pick \"precision\":\"fp64\")")
	workers := flag.Int("workers", 0, "kernel worker-pool width (0 = runtime.NumCPU())")
	maxInflight := flag.Int("max-inflight", 0, "admission gate: max concurrent queries before shedding with 429 (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-query deadline; expired queries abort mid-stage with a 503 timeout envelope (0 = none)")
	queryDelay := flag.Duration("query-delay", 0, "fault injection: serialized synthetic service time per query — capacity becomes a known 1/delay q/s (0 = off)")
	traceBuffer := flag.Int("trace-buffer", 0, "/debug/traces ring capacity in requests (0 = default 64)")
	sloTarget := flag.Duration("slo-target", 500*time.Millisecond, "SLO latency target for /slo and sirius_slo_* metrics")
	sloObjective := flag.Float64("slo-objective", 0.99, "SLO objective: fraction of queries that must meet -slo-target")
	shardSpec := flag.String("shard", "", "leaf mode: serve partition i/N of the search corpus (e.g. 1/4) instead of the full pipeline")
	shardSynth := flag.Int("shard-synth", 0, "leaf mode: serve N synthetic documents instead of the kb corpus (0 = kb corpus)")
	shardDelay := flag.Duration("shard-delay", 0, "leaf mode fault injection: stall every shard search this long")
	searchFrontend := flag.String("search-frontend", "", "route QA retrieval through this frontend's /v1/search (sharded search tier)")
	flag.Parse()

	if *shardSpec != "" {
		runLeaf(*shardSpec, *shardSynth, *shardDelay, *addr, *advertise, *frontend, *drain)
		return
	}

	cfg := sirius.DefaultConfig()
	cfg.ModelCache = *modelCache
	switch *engine {
	case "gmm":
		cfg.Engine = asr.EngineGMM
	case "dnn":
		cfg.Engine = asr.EngineDNN
	default:
		log.Fatalf("unknown engine %q (want gmm or dnn)", *engine)
	}
	if _, err := cluster.ParseKinds(*kinds); err != nil {
		log.Fatal(err)
	}
	cfg.BatchScoring = *batch
	cfg.BatchMaxSize = *batchSize
	cfg.Quantize = *quantize
	// The server runs the image pipeline at the pool's width by default;
	// DefaultConfig keeps IMMWorkers=1 for the library's serial baseline.
	cfg.Workers = *workers
	cfg.IMMWorkers = *workers
	cfg.SearchFrontend = *searchFrontend

	log.Printf("training models and building indexes (engine=%s)...", cfg.Engine)
	start := time.Now()
	p, err := sirius.New(cfg)
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	log.Printf("pipeline ready in %v; listening on %s", time.Since(start), *addr)
	defer p.Close()

	s := sirius.NewServer(p)
	if *cache > 0 {
		s.EnableCache(*cache)
		log.Printf("query result cache enabled (%d entries)", *cache)
	}
	if *maxInflight > 0 {
		s.SetMaxInflight(*maxInflight)
		log.Printf("admission control enabled (max %d in-flight queries)", *maxInflight)
	}
	if *timeout > 0 {
		s.SetTimeout(*timeout)
		log.Printf("per-query deadline enabled (%v)", *timeout)
	}
	if *traceBuffer > 0 {
		s.SetTraceBuffer(*traceBuffer)
		log.Printf("trace ring buffer resized to %d requests", *traceBuffer)
	}
	if *queryDelay > 0 {
		s.SetQueryDelay(*queryDelay)
		log.Printf("fault injection: serialized %v service time per query (capacity %.1f q/s)", *queryDelay, 1/queryDelay.Seconds())
	}
	s.SetSLO(*sloTarget, *sloObjective)
	srv := &http.Server{
		Addr:    *addr,
		Handler: telemetry.AccessLog(os.Stderr, s),
		// Voice queries upload multi-second WAVs and take seconds of
		// pipeline time under load, so read/write limits are generous —
		// but present, so a stalled peer cannot pin a connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Backend mode: announce ourselves to the frontend, retrying —
	// backends and frontend boot in any order.
	reg := cluster.Registration{URL: *advertise, Kinds: *kinds}
	if reg.URL == "" {
		reg.URL = advertiseURL(*addr)
	}
	regClient := &http.Client{Timeout: 5 * time.Second}
	regCtx, regCancel := context.WithCancel(context.Background())
	defer regCancel()
	if *frontend != "" {
		go func() {
			for {
				if err := cluster.Register(regClient, *frontend, reg); err == nil {
					log.Printf("registered with frontend %s as %s (kinds=%s)", *frontend, reg.URL, *kinds)
					return
				} else if regCtx.Err() != nil {
					return
				} else {
					log.Printf("frontend registration failed (will retry): %v", err)
				}
				select {
				case <-regCtx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests with a
	// deadline — the shutdown behavior a WSC scheduler rolling the fleet
	// expects (no dropped queries, bounded drain). The drain sequence is
	// ordered for zero routed-to-a-corpse requests: readiness off first
	// (health checks stop picking us), deregister from the frontend,
	// then close the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining in-flight requests (deadline %v)", *drain)
		s.SetReady(false)
		regCancel()
		if *frontend != "" {
			if err := cluster.Deregister(regClient, *frontend, reg); err != nil {
				log.Printf("deregister: %v", err)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v (forcing close)", err)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("server stopped")
	}
}
