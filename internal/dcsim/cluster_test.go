package dcsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestSimulateClusterValidation(t *testing.T) {
	arr := PoissonArrivals(100, 10, 1)
	svc := exponentialServices(5*time.Millisecond, 10, 2)
	if _, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 0}); err == nil {
		t.Fatal("0 servers must error")
	}
	if _, err := SimulateCluster(arr, svc[:5], nil, ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := SimulateCluster(arr, svc, svc[:5], ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("hedge length mismatch must error")
	}
	if _, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 2, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
	if _, err := SimulateCluster(nil, nil, nil, ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("empty trace must error")
	}
}

// Replication is the paper's §6 lever: doubling the pool at fixed
// arrival rate must collapse queueing delay and the p99 with it.
func TestSimulateClusterReplicationCutsTail(t *testing.T) {
	const n = 4000
	mean := 5 * time.Millisecond
	// rho ≈ 0.9 on one server: deep queues, fat tail.
	arr := PoissonArrivals(180, n, 5)
	svc := exponentialServices(mean, n, 6)
	for _, policy := range []string{PolicyRR, PolicyLeast, PolicyP2C} {
		one, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 1, Policy: policy, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		two, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 2, Policy: policy, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if two.Response.P99 >= one.Response.P99 {
			t.Fatalf("%s: 2 servers p99 %v not below 1 server p99 %v", policy, two.Response.P99, one.Response.P99)
		}
		if two.Utilization >= one.Utilization {
			t.Fatalf("%s: utilization should drop with replication: %v vs %v", policy, two.Utilization, one.Utilization)
		}
	}
}

// Least-loaded routing beats blind round-robin on tail latency when
// service times are heavy-tailed (the slow request parks a queue and
// RR keeps feeding it).
func TestSimulateClusterLeastLoadedBeatsRR(t *testing.T) {
	const n = 6000
	arr := PoissonArrivals(300, n, 8)
	svc := bimodalServices(n, 2*time.Millisecond, 80*time.Millisecond, 20, 9)
	rr, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 4, Policy: PolicyRR, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	least, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 4, Policy: PolicyLeast, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if least.Response.P99 >= rr.Response.P99 {
		t.Fatalf("least-loaded p99 %v not below round-robin p99 %v", least.Response.P99, rr.Response.P99)
	}
}

// Hedging attacks the tail that routing can't: when a request lands a
// pathological service time, its duplicate on another server usually
// draws a fast one and wins.
func TestSimulateClusterHedgingCutsTail(t *testing.T) {
	const n = 6000
	arr := PoissonArrivals(100, n, 11)
	// 1-in-50 requests takes 100 ms against a 2 ms norm; hedge after
	// 10 ms; the hedge redraws from the same bimodal distribution.
	svc := bimodalServices(n, 2*time.Millisecond, 100*time.Millisecond, 50, 12)
	hedgeSvc := bimodalServices(n, 2*time.Millisecond, 100*time.Millisecond, 50, 13)
	spec := ClusterSpec{Servers: 4, Policy: PolicyLeast, Seed: 14}
	plain, err := SimulateCluster(arr, svc, hedgeSvc, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.HedgeDelay = 10 * time.Millisecond
	hedged, err := SimulateCluster(arr, svc, hedgeSvc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedges == 0 || hedged.HedgeWins == 0 {
		t.Fatalf("expected hedges and wins, got %d/%d", hedged.Hedges, hedged.HedgeWins)
	}
	if hedged.HedgeWins > hedged.Hedges {
		t.Fatalf("wins %d exceed hedges %d", hedged.HedgeWins, hedged.Hedges)
	}
	if hedged.Response.P99 >= plain.Response.P99 {
		t.Fatalf("hedged p99 %v not below plain p99 %v", hedged.Response.P99, plain.Response.P99)
	}
	if plain.Hedges != 0 {
		t.Fatalf("plain run launched %d hedges", plain.Hedges)
	}
}

// bimodalServices draws service times that are fast except for roughly
// one in every oneSlowIn draws — the fat tail of a real serving stack.
// Slow positions depend on the seed, so a hedge redraw with a different
// seed rarely repeats the primary's bad luck.
func bimodalServices(n int, fast, slow time.Duration, oneSlowIn int, seed int64) []time.Duration {
	svc := exponentialServices(fast, n, seed)
	rng := rand.New(rand.NewSource(seed * 31))
	for i := range svc {
		if rng.Intn(oneSlowIn) == 0 {
			svc[i] = slow
		}
	}
	return svc
}
