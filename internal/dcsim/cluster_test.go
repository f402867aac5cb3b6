package dcsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestSimulateClusterValidation(t *testing.T) {
	arr := poissonTrace(100, 10, 1)
	svc := exponentialServices(5*time.Millisecond, 10, 2)
	if _, err := SimulateCluster(arr, svc, nil, ClusterSpec{Servers: 0}); err == nil {
		t.Fatal("0 servers must error")
	}
	if _, err := SimulateCluster(arr, svc[:5], nil, ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := SimulateCluster(arr, svc, svc, ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("a non-nil hedge argument must error")
	}
	back := append([]time.Duration(nil), arr...)
	back[3], back[4] = back[4], back[3]
	if _, err := SimulateCluster(back, svc, nil, ClusterSpec{Servers: 2}); err == nil {
		t.Fatal("a decreasing trace must error")
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
	arr := poissonTrace(180, n, 5)
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
	}
}

// Least-loaded routing beats blind round-robin on tail latency when
// service times are heavy-tailed (the slow request parks a queue and
// RR keeps feeding it).
func TestSimulateClusterLeastLoadedBeatsRR(t *testing.T) {
	const n = 6000
	arr := poissonTrace(300, n, 8)
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

// bimodalServices draws service times that are fast except for roughly
// one in every oneSlowIn draws — the fat tail of a real serving stack.
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
