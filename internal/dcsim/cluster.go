package dcsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"sirius/internal/telemetry"
)

// Replicated-pool simulation, and at Servers: 1 the single FIFO queue
// the M/M/1 model describes. One front-end router dispatches a Poisson
// arrival trace across N backend servers under a routing policy,
// optionally hedging requests that outlive a delay — the topology
// internal/cluster serves for real. Response times land in the same
// telemetry histograms the live frontend exports, so a simulated pool
// and a measured frontend + N backends run compare bucket-for-bucket
// (the §6 provisioning question: how many machines buy how much p99).

// Routing policies for the simulated pool.
const (
	PolicyRR    = "rr"    // round-robin
	PolicyLeast = "least" // least remaining work (idealized least-loaded)
	PolicyP2C   = "p2c"   // power of two choices over remaining work
)

// ClusterSpec configures one simulated pool run.
type ClusterSpec struct {
	Servers int
	Policy  string // PolicyRR, PolicyLeast, or PolicyP2C

	// HedgeDelay, when positive, duplicates a request onto a second
	// server once its primary has been pending that long; the earlier
	// completion wins. Neither arm is canceled — both consume capacity,
	// the conservative "hedged request" of Dean & Barroso.
	HedgeDelay time.Duration

	Seed int64 // P2C sampling and hedge service-time draws
}

// ClusterResult summarizes a simulated pool run.
type ClusterResult struct {
	Requests  int
	Servers   int
	Hedges    int // hedges launched
	HedgeWins int // requests whose hedge finished first

	Response    telemetry.Summary   // merged response-time distribution
	PerServer   []telemetry.Summary // primary-dispatch response times per server
	Utilization float64             // total busy time / (servers × makespan)
}

// simEvent is one scheduled simulation step: a request arriving at the
// router, or a pending request's hedge timer firing.
type simEvent struct {
	at    time.Duration
	req   int
	hedge bool
}

type eventHeap []simEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// SimulateCluster pushes the arrival trace through an N-server pool.
// services[i] is request i's service demand on its primary server;
// hedged arms draw from hedgeServices (falling back to services when
// nil). Events are processed in virtual-time order, so a hedge fired
// at t competes for server capacity exactly as a request arriving at t
// would.
func SimulateCluster(arrivals, services, hedgeServices []time.Duration, spec ClusterSpec) (ClusterResult, error) {
	if spec.Servers < 1 {
		return ClusterResult{}, fmt.Errorf("dcsim: cluster needs at least 1 server, got %d", spec.Servers)
	}
	if len(arrivals) != len(services) {
		return ClusterResult{}, fmt.Errorf("dcsim: %d arrivals vs %d service times", len(arrivals), len(services))
	}
	if len(arrivals) == 0 {
		return ClusterResult{}, fmt.Errorf("dcsim: empty trace")
	}
	if hedgeServices == nil {
		hedgeServices = services
	}
	if len(hedgeServices) != len(arrivals) {
		return ClusterResult{}, fmt.Errorf("dcsim: %d arrivals vs %d hedge service times", len(arrivals), len(hedgeServices))
	}
	switch spec.Policy {
	case "", PolicyRR, PolicyLeast, PolicyP2C:
	default:
		return ClusterResult{}, fmt.Errorf("dcsim: unknown policy %q", spec.Policy)
	}

	n := spec.Servers
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	free := make([]time.Duration, n) // each server's queue-drain time
	busy := make([]time.Duration, n) // accumulated service time
	merged := &telemetry.Histogram{}
	perServer := make([]*telemetry.Histogram, n)
	for i := range perServer {
		perServer[i] = &telemetry.Histogram{}
	}

	// pick chooses a server for a dispatch at time t; avoid excludes a
	// server already carrying this request's other arm.
	rrSeq := 0
	pick := func(avoid int) int {
		switch spec.Policy {
		case PolicyLeast:
			best := -1
			for s := 0; s < n; s++ {
				if s == avoid {
					continue
				}
				if best < 0 || free[s] < free[best] {
					best = s
				}
			}
			return best
		case PolicyP2C:
			if n == 1 {
				if avoid == 0 {
					return -1
				}
				return 0
			}
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			if a == avoid {
				a = b
			} else if b != avoid && free[b] < free[a] {
				a = b
			}
			if a == avoid {
				return -1
			}
			return a
		default: // round-robin
			for tries := 0; tries < n; tries++ {
				s := rrSeq % n
				rrSeq++
				if s != avoid {
					return s
				}
			}
			return -1
		}
	}

	// dispatch queues work on server s at time t, returning completion.
	dispatch := func(s int, t, svc time.Duration) time.Duration {
		start := t
		if free[s] > start {
			start = free[s]
		}
		done := start + svc
		free[s] = done
		busy[s] += svc
		return done
	}

	events := make(eventHeap, 0, len(arrivals)+len(arrivals)/8)
	for i, arr := range arrivals {
		events = append(events, simEvent{at: arr, req: i})
	}
	heap.Init(&events)

	primaryDone := make([]time.Duration, len(arrivals))
	primaryServer := make([]int, len(arrivals))
	res := ClusterResult{Requests: len(arrivals), Servers: n}
	record := func(i int, done time.Duration) {
		lat := done - arrivals[i]
		merged.Observe(lat)
		perServer[primaryServer[i]].Observe(lat)
	}

	for events.Len() > 0 {
		ev := heap.Pop(&events).(simEvent)
		i := ev.req
		if !ev.hedge {
			s := pick(-1)
			primaryServer[i] = s
			primaryDone[i] = dispatch(s, ev.at, services[i])
			if spec.HedgeDelay > 0 && primaryDone[i] > ev.at+spec.HedgeDelay && n > 1 {
				heap.Push(&events, simEvent{at: ev.at + spec.HedgeDelay, req: i, hedge: true})
			} else {
				record(i, primaryDone[i])
			}
			continue
		}
		// Hedge timer fired with the primary still pending: duplicate
		// onto another server, earlier completion wins.
		res.Hedges++
		done := primaryDone[i]
		if s := pick(primaryServer[i]); s >= 0 {
			if hd := dispatch(s, ev.at, hedgeServices[i]); hd < done {
				done = hd
				res.HedgeWins++
			}
		}
		record(i, done)
	}

	res.Response = merged.Summarize()
	res.PerServer = make([]telemetry.Summary, n)
	var makespan, totalBusy time.Duration
	for s := 0; s < n; s++ {
		res.PerServer[s] = perServer[s].Summarize()
		if free[s] > makespan {
			makespan = free[s]
		}
		totalBusy += busy[s]
	}
	if makespan > 0 {
		res.Utilization = float64(totalBusy) / (float64(makespan) * float64(n))
	}
	return res, nil
}

// String renders the pool result in the loadtest report shape.
func (r ClusterResult) String() string {
	return fmt.Sprintf("servers=%d requests=%d hedges=%d (won %d) util=%.2f — p50 %v p95 %v p99 %v max %v",
		r.Servers, r.Requests, r.Hedges, r.HedgeWins, r.Utilization,
		r.Response.P50.Round(time.Microsecond), r.Response.P95.Round(time.Microsecond),
		r.Response.P99.Round(time.Microsecond), r.Response.Max.Round(time.Microsecond))
}
