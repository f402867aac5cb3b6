// Command sirius-frontend is the cluster's front-end load balancer
// (the dispatch tier of the paper's Figure 2): it accepts the same
// POST /v1/query as sirius-server and routes each query to a pool of
// backend sirius-servers with active health checks, per-backend
// circuit breakers, bounded retries, and optional request hedging.
//
// Backends are configured statically with repeated -backend flags
// (url, or kind=url to pin a stage pool) and/or dynamically: a
// sirius-server started with -frontend announces itself on POST
// /register and withdraws on drain.
//
// Operational surface: /metrics (per-backend latency histograms plus
// retry/hedge/breaker counters, with OpenMetrics exemplars on the tail
// buckets), /backends (pool state), /debug/traces (end-to-end stitched
// waterfalls: each attempt span carries the backend's span tree under
// it, joined on the shared request id; ?id=<request-id> looks one up,
// -trace-buffer sizes the ring), /slo (latency objective and burn
// rates), /healthz liveness, /readyz readiness (false until a backend
// is ready).
//
// Usage:
//
//	sirius-frontend -addr :8090 -backend http://h1:8080 -backend http://h2:8080 \
//	    [-policy round_robin|p2c] [-retries 2] [-hedge] [-hedge-min 20ms]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/telemetry"
)

// backendFlags collects repeated -backend values ("url" or "kind=url").
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }
func (b *backendFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	var backends backendFlags
	flag.Var(&backends, "backend", "backend base URL, repeatable; prefix kinds= to pin pools (e.g. asr,qa=http://h1:8080); search@i/N= pins a search-shard leaf (e.g. search@0/2=http://h1:8081)")
	policy := flag.String("policy", "round_robin", "routing policy: round_robin or p2c (power-of-two-choices least-loaded)")
	retries := flag.Int("retries", 2, "max retry attempts after a failed dispatch")
	hedge := flag.Bool("hedge", false, "hedge slow requests on a second backend after the observed p95")
	hedgeMin := flag.Duration("hedge-min", 20*time.Millisecond, "floor for the hedge delay")
	hedgeWarmup := flag.Int("hedge-warmup", 32, "observations required before the p95 hedge delay is trusted (0 hedges immediately at the floor)")
	checkInterval := flag.Duration("check-interval", 2*time.Second, "active backend health-check period")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's circuit breaker")
	breakerOpenFor := flag.Duration("breaker-open", 5*time.Second, "breaker cool-off before the half-open probe")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for draining in-flight requests")
	traceBuffer := flag.Int("trace-buffer", 64, "/debug/traces ring capacity in requests")
	sloTarget := flag.Duration("slo-target", 500*time.Millisecond, "SLO latency target for /slo and sirius_slo_* metrics")
	sloObjective := flag.Float64("slo-objective", 0.99, "SLO objective: fraction of queries that must meet -slo-target")
	shardBudget := flag.Duration("shard-budget", 0, "per-shard deadline for /v1/search scatter-gather; late shards are dropped and the response tagged partial (0 = default 250ms)")
	flag.Parse()

	pol, err := cluster.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.DefaultFrontendConfig()
	cfg.Policy = pol
	cfg.MaxRetries = *retries
	cfg.Hedge = *hedge
	cfg.HedgeMinDelay = *hedgeMin
	cfg.HedgeWarmup = *hedgeWarmup
	cfg.CheckInterval = *checkInterval
	cfg.BreakerThreshold = *breakerThreshold
	cfg.BreakerOpenFor = *breakerOpenFor
	cfg.TraceBuffer = *traceBuffer
	cfg.SLOTarget = *sloTarget
	cfg.SLOObjective = *sloObjective
	cfg.ShardBudget = *shardBudget

	f := cluster.NewFrontend(cfg)
	for _, spec := range backends {
		kinds, url := "", spec
		if i := strings.Index(spec, "="); i >= 0 && !strings.Contains(spec[:i], "://") {
			kinds, url = spec[:i], spec[i+1:]
		}
		// search@i/N pins a search-shard leaf to its corpus partition.
		shardI, shardN := 0, 0
		if kpart, spart, ok := strings.Cut(kinds, "@"); ok {
			var perr error
			if shardI, shardN, perr = cluster.ParseShardSpec(spart); perr != nil {
				log.Fatalf("backend %q: %v", spec, perr)
			}
			kinds = kpart
		}
		b, err := f.AddShardBackend(url, kinds, shardI, shardN)
		if err != nil {
			log.Fatalf("backend %q: %v", spec, err)
		}
		if shardN > 0 {
			log.Printf("backend %s (%s, shard %d/%d) registered", b.ID, b.KindsString(), shardI, shardN)
		} else {
			log.Printf("backend %s (%s) registered", b.ID, b.KindsString())
		}
	}
	f.Start()
	defer f.Stop()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           telemetry.AccessLog(os.Stderr, f),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("frontend listening on %s (policy=%s retries=%d hedge=%v, %d static backends)",
		*addr, pol, *retries, *hedge, len(backends))

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
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v (forcing close)", err)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("frontend stopped")
	}
}
