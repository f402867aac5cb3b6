package cluster

import (
	"errors"
	"sync/atomic"
)

// errNoBackends means no ready backend (with an admitting breaker)
// exists for the requested kind.
var errNoBackends = errors.New("cluster: no ready backend for kind")

// router picks a backend for each attempt, combining the registry's
// ready set, a round-robin rotation, and each backend's circuit
// breaker.
type router struct {
	reg *registry
	seq atomic.Uint64
}

// pickWhere returns a ready backend for the kind whose breaker admits
// the attempt, restricted to backends satisfying where (nil = no
// restriction; the scatter-gather aggregator pins each fan-out arm to
// one shard's replica pool this way) and skipping backends in exclude
// (already tried, or carrying this request's other arm). When every
// candidate is excluded but some exist, reuse waives the exclusions —
// with one replica left, retrying it beats failing outright — and
// without reuse the pick fails, since a hedge on its own primary's
// backend only doubles that backend's load. allow is called on the
// returned backend (claiming the half-open probe slot when applicable),
// so the caller must record the attempt's outcome on the backend.
func (rt *router) pickWhere(kind string, exclude map[string]bool, where func(*Backend) bool, reuse bool) (*Backend, error) {
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
	candidates := make([]*Backend, 0, len(ready))
	for _, b := range ready {
		if !exclude[b.ID] {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 && reuse {
		candidates = ready
	}
	if len(candidates) == 0 {
		return nil, errNoBackends
	}
	// Try candidates in rotation order until a breaker admits one.
	start := int(rt.seq.Add(1) - 1)
	for i := range candidates {
		if b := candidates[(start+i)%len(candidates)]; b.breaker.allow() {
			return b, nil
		}
	}
	return nil, errNoBackends
}
