package cluster

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Policy selects how the router spreads work over a kind's ready pool.
type Policy string

const (
	// policyRoundRobin cycles through the pool — fair when replicas
	// and requests are uniform.
	policyRoundRobin Policy = "round_robin"
	// PolicyP2C samples two random replicas and sends to the less
	// loaded — near-optimal load spread at O(1) cost, and robust to
	// heterogeneous replicas and fat-tailed service times (which is
	// exactly what the paper's Figs 7-9 latency distributions are).
	PolicyP2C Policy = "p2c"
)

// ParsePolicy accepts the flag spellings of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round_robin", "rr", "roundrobin":
		return policyRoundRobin, nil
	case "p2c", "least", "least_loaded":
		return PolicyP2C, nil
	}
	return "", errors.New("cluster: unknown policy " + s + " (want round_robin or p2c)")
}

// errNoBackends means no ready backend (with an admitting breaker)
// exists for the requested kind.
var errNoBackends = errors.New("cluster: no ready backend for kind")

// router picks a backend for each attempt, combining the registry's
// ready set, the policy, and each backend's circuit breaker.
type router struct {
	reg    *registry
	policy Policy
	seq    atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

// newRouter builds a router over the registry. Seed fixes the P2C
// sampling sequence (tests); pass 0 for an arbitrary fixed seed.
func newRouter(reg *registry, policy Policy, seed int64) *router {
	if seed == 0 {
		seed = 1
	}
	return &router{reg: reg, policy: policy, rng: rand.New(rand.NewSource(seed))}
}

// pick returns a ready backend for the kind whose breaker admits the
// attempt, skipping backends in exclude (already tried, or carrying
// this request's other hedge arm). When every candidate is excluded
// but some exist, exclusions are waived — with one replica left,
// retrying it beats failing outright. allow is called on the returned
// backend (claiming the half-open probe slot when applicable), so the
// caller must record the attempt's outcome on the backend.
func (rt *router) pick(kind string, exclude map[string]bool) (*Backend, error) {
	return rt.pickWhere(kind, exclude, nil)
}

// pickWhere is pick restricted to backends satisfying where (nil = no
// restriction). The scatter-gather aggregator uses it to route each
// fan-out arm to one shard's replica pool while inheriting the same
// breaker/exclusion semantics as single-backend dispatch.
func (rt *router) pickWhere(kind string, exclude map[string]bool, where func(*Backend) bool) (*Backend, error) {
	ready := rt.reg.readyFor(kind)
	if where != nil {
		kept := ready[:0]
		for _, b := range ready {
			if where(b) {
				kept = append(kept, b)
			}
		}
		ready = kept
	}
	if len(ready) == 0 {
		return nil, errNoBackends
	}
	candidates := make([]*Backend, 0, len(ready))
	for _, b := range ready {
		if !exclude[b.ID] {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		candidates = ready
	}
	switch rt.policy {
	case PolicyP2C:
		if b := rt.pickP2C(candidates); b != nil {
			return b, nil
		}
	default:
		if b := rt.pickRoundRobin(candidates); b != nil {
			return b, nil
		}
	}
	return nil, errNoBackends
}

// pickRoundRobin tries candidates in rotation order until a breaker
// admits one.
func (rt *router) pickRoundRobin(candidates []*Backend) *Backend {
	start := int(rt.seq.Add(1) - 1)
	for i := 0; i < len(candidates); i++ {
		b := candidates[(start+i)%len(candidates)]
		if b.breaker.allow() {
			return b
		}
	}
	return nil
}

// pickP2C samples two distinct candidates, prefers the less loaded,
// and falls back to a full scan if both breakers refuse.
func (rt *router) pickP2C(candidates []*Backend) *Backend {
	if len(candidates) == 1 {
		if candidates[0].breaker.allow() {
			return candidates[0]
		}
		return nil
	}
	rt.mu.Lock()
	i := rt.rng.Intn(len(candidates))
	j := rt.rng.Intn(len(candidates) - 1)
	rt.mu.Unlock()
	if j >= i {
		j++
	}
	first, second := candidates[i], candidates[j]
	if second.load() < first.load() {
		first, second = second, first
	}
	if first.breaker.allow() {
		return first
	}
	if second.breaker.allow() {
		return second
	}
	for _, b := range candidates {
		if b != first && b != second && b.breaker.allow() {
			return b
		}
	}
	return nil
}
