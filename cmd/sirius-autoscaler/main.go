// Command sirius-autoscaler closes the loop between the cluster's
// measured load and its replica count (the provisioning question of
// the paper's §6, answered online instead of offline): it polls the
// frontend's GET /loadstate, replays the observed arrival rate and
// service-time distribution through the dcsim queueing model to find
// the smallest pool that holds the p99 SLO, and reconciles by spawning
// sirius-server processes (which self-register with the frontend) or
// draining surplus ones (SIGTERM → unready → deregister → shutdown).
//
// The plan simulates the frontend's own routing policy (read from
// /loadstate with its SLO target) at a fixed seed. On SIGINT or SIGTERM
// the autoscaler drains its replicas, each for up to 30 s, then stops.
//
// Operational surface: /autoscale (JSON status: observed vs predicted
// p99, desired vs live replicas, last decision) beside the routes every
// binary serves — /metrics (sirius_autoscale_* counters and gauges),
// /healthz, /readyz, /debug/traces, /debug/breakdown and /debug/pprof/.
//
// Usage:
//
//	sirius-autoscaler -frontend http://127.0.0.1:8090 \
//	    -server-bin ./sirius-server -min 1 -max 4 \
//	    [-server-arg -kinds=qa -server-arg -models=/tmp/models ...]
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

	"sirius/internal/autoscale"
	"sirius/internal/cluster"
	"sirius/internal/telemetry"
)

// argFlags collects repeated -server-arg values passed to every replica.
type argFlags []string

func (a *argFlags) String() string { return strings.Join(*a, " ") }
func (a *argFlags) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8095", "status listen address (/autoscale and the operational routes)")
	frontend := flag.String("frontend", "http://127.0.0.1:8090", "frontend base URL to observe and register replicas with")
	serverBin := flag.String("server-bin", "sirius-server", "sirius-server binary to spawn as replicas")
	var serverArgs argFlags
	flag.Var(&serverArgs, "server-arg", "extra sirius-server flag for every replica, repeatable (e.g. -server-arg -kinds=qa)")
	min := flag.Int("min", 1, "minimum replicas")
	max := flag.Int("max", 4, "maximum replicas")
	interval := flag.Duration("interval", 5*time.Second, "control-loop tick period")
	cooldown := flag.Duration("cooldown", 15*time.Second, "minimum gap between scaling actions")
	downStable := flag.Int("down-stable", 3, "consecutive ticks demanding a smaller pool before one replica is drained")
	sloTarget := flag.Duration("slo-target", 0, "p99 objective for the plan (0 adopts the frontend's own /slo target)")
	simRequests := flag.Int("sim-requests", 512, "simulated requests per candidate replica count")
	flag.Parse()

	reg := telemetry.NewRegistry()
	pool := &autoscale.ProcPool{
		Bin:      *serverBin,
		Frontend: *frontend,
		Args:     serverArgs,
	}
	ctrl := autoscale.NewController(autoscale.Config{
		Min: *min, Max: *max,
		SLOTarget:   *sloTarget,
		Interval:    *interval,
		Cooldown:    *cooldown,
		DownStable:  *downStable,
		SimRequests: *simRequests,
		Seed:        1,
	}, &autoscale.HTTPSource{URL: strings.TrimRight(*frontend, "/")}, pool, reg)

	mux := http.NewServeMux()
	mux.Handle("/autoscale", ctrl.Handler())
	telemetry.Mount(mux, telemetry.Ops{Metrics: reg})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("autoscaler watching %s: replicas %d..%d, tick %v, cooldown %v",
		*frontend, *min, *max, *interval, *cooldown)

	// SIGINT or SIGTERM drains the replicas, then the status listener; a
	// second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	go ctrl.Run(ctx)
	drainReplicas := func() {
		log.Printf("draining %d replicas (deadline %v)", pool.Live(), cluster.DrainDeadline)
		pool.StopAll(cluster.DrainDeadline)
	}
	if err := cluster.Serve(ctx, srv, "", cluster.Registration{}, drainReplicas); err != nil {
		log.Fatal(err)
	}
}
