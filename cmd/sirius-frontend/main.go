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
// Routing keeps fixed tail-cutting constants: two retries, a hedge
// (with -hedge) after the kind's observed p95 once 32 queries have set
// it but never before 20 ms, and a breaker that opens after 3
// consecutive failures for 5 s. On SIGINT or SIGTERM it drains
// in-flight requests for up to 30 s.
//
// Operational surface, the same routes every binary serves: /metrics
// (per-backend latency histograms plus retry/hedge/breaker counters,
// with OpenMetrics exemplars on the tail buckets), /debug/traces
// (end-to-end stitched waterfalls: each attempt span carries the
// backend's span tree under it, joined on the shared request id;
// ?id=<request-id> looks one up), /slo (99% under -slo-target, with
// burn rates), /healthz liveness, /readyz readiness (false until a
// backend is ready), /debug/breakdown and /debug/pprof/. Beside them,
// /backends is the pool state and /loadstate the autoscaler's feed.
//
// Usage:
//
//	sirius-frontend -addr :8090 -backend http://h1:8080 -backend http://h2:8080 \
//	    [-policy round_robin|p2c] [-hedge] [-check-interval 2s]
package main

import (
	"context"
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
	hedge := flag.Bool("hedge", false, "hedge slow requests on a second backend after the observed p95")
	checkInterval := flag.Duration("check-interval", 2*time.Second, "active backend health-check period")
	sloTarget := flag.Duration("slo-target", 500*time.Millisecond, "SLO latency target (99% of queries must meet it) for /slo and sirius_slo_* metrics")
	shardBudget := flag.Duration("shard-budget", 0, "per-shard deadline for /v1/search scatter-gather; late shards are dropped and the response tagged partial (0 = default 250ms)")
	flag.Parse()

	pol, err := cluster.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.DefaultFrontendConfig()
	cfg.Policy = pol
	cfg.Hedge = *hedge
	cfg.CheckInterval = *checkInterval
	cfg.SLOTarget = *sloTarget
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
		*addr, pol, cfg.MaxRetries, *hedge, len(backends))

	// SIGINT or SIGTERM starts the graceful drain; a second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := cluster.Serve(ctx, srv, "", cluster.Registration{}, nil); err != nil {
		log.Fatal(err)
	}
}
