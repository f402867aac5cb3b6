// Command sirius-server runs the end-to-end Sirius IPA web service: it
// trains the acoustic models and CRF tagger on the synthetic substrates,
// builds the knowledge corpus and image database, and serves queries on
// POST /v1/query: a JSON body with any of "text", a base64 WAV "audio"
// and a base64 PNG "image", plus streamed recordings on POST /v1/stream.
//
// Observability surface: Prometheus metrics at /metrics (tail buckets
// carry OpenMetrics exemplars pointing at the slow request's trace;
// stage latency is asr/qa/imm, the kernels inside each stage are
// sirius_stage_kernel_seconds; served counts are each histogram's
// _count, and sheds and timeouts are sirius_query_errors_total reasons),
// recent request traces at /debug/traces (?id=<request-id> looks one up; add
// ?trace=1 to a query to get its span tree inline), the measured
// stage/kernel cycle-accounting breakdown at /debug/breakdown, the
// latency SLO (99% under 500 ms) with burn rates at /slo, liveness
// at /healthz and readiness at /readyz (readiness flips false during
// graceful drain), Go profiling at /debug/pprof/, and a JSON-lines
// access log on stderr. Every binary serves the same operational routes.
//
// Backend mode: with -frontend the server joins a cluster — it
// registers itself with a sirius-frontend (retrying until the frontend
// is up), and on shutdown flips /readyz to 503 and deregisters before
// draining (for up to 30 s), so the router stops sending work ahead of
// the listener closing.
//
// Usage:
//
//	sirius-server [-addr :8080] [-engine gmm|dnn]
//	    [-frontend http://lb:8090] [-kinds asr,qa,imm] [-advertise http://me:8080]
//	    [-batch] [-workers N] [-max-inflight N] [-timeout 10s]
//
// A request picks its acoustic scoring precision with the "precision"
// field: fp64 (the default) on either engine, or int8 — the quantized
// GEMM path — on -engine dnn, which builds its int8 model image at
// startup. int8 on the GMM engine is a 400 "bad_precision" envelope.
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
// -batch turns on cross-request batched acoustic scoring (at most 8
// requests per scoring call).
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
	"log"
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
// /v1/shard/search plus the operational surface every binary serves and
// the same register/drain/deregister lifecycle as a full backend.
func runLeaf(spec string, synthDocs int, delay time.Duration, addr, advertise, frontend string) {
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
	telemetry.Mount(mux, telemetry.Ops{
		Metrics: reg,
		Ready: func() error {
			if !ready.Load() {
				return errors.New("draining")
			}
			return nil
		},
	})
	srv := &http.Server{
		Addr:              addr,
		Handler:           telemetry.AccessLog(os.Stderr, mux),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serve(srv, frontend, cluster.Registration{URL: advertise, Kinds: cluster.KindSearch, Shard: si, Shards: sn},
		func() { ready.Store(false) })
}

// serve runs srv through cluster.Serve until SIGINT or SIGTERM starts
// the graceful drain; a second signal kills the process.
func serve(srv *http.Server, frontend string, reg cluster.Registration, unready func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := cluster.Serve(ctx, srv, frontend, reg, unready); err != nil {
		log.Fatal(err)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	engine := flag.String("engine", "gmm", "acoustic model: gmm or dnn")
	modelCache := flag.String("models", "", "path to cache trained acoustic models (created on first run)")
	frontend := flag.String("frontend", "", "frontend base URL to register with (backend mode)")
	kinds := flag.String("kinds", "all", "stage pools this backend serves: comma-separated asr,qa,imm, or all")
	advertise := flag.String("advertise", "", "base URL peers reach this server at (default: derived from -addr)")
	batch := flag.Bool("batch", false, "coalesce concurrent requests' acoustic scoring into shared batched calls")
	workers := flag.Int("workers", 0, "kernel worker-pool width (0 = runtime.NumCPU())")
	maxInflight := flag.Int("max-inflight", 0, "admission gate: max concurrent queries before shedding with 429 (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-query deadline; expired queries abort mid-stage with a 503 timeout envelope (0 = none)")
	queryDelay := flag.Duration("query-delay", 0, "fault injection: serialized synthetic service time per query — capacity becomes a known 1/delay q/s (0 = off)")
	shardSpec := flag.String("shard", "", "leaf mode: serve partition i/N of the search corpus (e.g. 1/4) instead of the full pipeline")
	shardSynth := flag.Int("shard-synth", 0, "leaf mode: serve N synthetic documents instead of the kb corpus (0 = kb corpus)")
	shardDelay := flag.Duration("shard-delay", 0, "leaf mode fault injection: stall every shard search this long")
	searchFrontend := flag.String("search-frontend", "", "route QA retrieval through this frontend's /v1/search (sharded search tier)")
	flag.Parse()

	if *shardSpec != "" {
		runLeaf(*shardSpec, *shardSynth, *shardDelay, *addr, *advertise, *frontend)
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
	if *maxInflight > 0 {
		s.SetMaxInflight(*maxInflight)
		log.Printf("admission control enabled (max %d in-flight queries)", *maxInflight)
	}
	if *timeout > 0 {
		s.SetTimeout(*timeout)
		log.Printf("per-query deadline enabled (%v)", *timeout)
	}
	if *queryDelay > 0 {
		s.SetQueryDelay(*queryDelay)
		log.Printf("fault injection: serialized %v service time per query (capacity %.1f q/s)", *queryDelay, 1/queryDelay.Seconds())
	}
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
	serve(srv, *frontend, cluster.Registration{URL: *advertise, Kinds: *kinds}, func() { s.SetReady(false) })
}
