// Package cluster is the distributed serving tier of the paper's
// Figure 2: a front-end load balancer that dispatches voice/vision
// queries across replicated pools of backend servers. The paper's §6
// provisioning study trades machine count against tail latency under
// exactly this topology; this package makes the topology real so the
// repo can measure it. It provides a backend registry with active
// health checks and drain awareness, a round-robin router over
// per-kind asr/qa/imm stage pools, per-backend circuit breakers,
// bounded retries with exponential backoff + jitter, and optional
// request hedging after a p95-derived delay — the standard WSC
// tail-cutting toolkit (Dean & Barroso, "The Tail at Scale").
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/telemetry"
)

// Query kinds a backend can serve — the stage pools of Figure 2. A
// backend with no explicit kinds serves everything (the monolithic
// sirius-server default).
const (
	kindASR = "asr" // voice queries (audio upload)
	kindIMM = "imm" // image-matching queries (photo upload)
	kindQA  = "qa"  // text-only question answering
	// KindSearch is the sharded knowledge-base search tier: leaf
	// backends each holding one corpus partition, reached by the
	// frontend's scatter-gather /v1/search rather than by single-backend
	// dispatch.
	KindSearch = "search"
)

// backendRole is the pool-membership half of a Backend — which stage
// kinds it serves and, for search leaves, which partition it holds. It
// lives behind an atomic pointer because re-registration may change it
// in place (an autoscaler respawn can come back with a different role)
// while the router's lock-free readers (serves, the scatter topology
// walk) are mid-flight; swapping the whole struct keeps every read
// internally consistent.
type backendRole struct {
	kinds map[string]bool // kinds served; empty = all kinds

	// shard/shards identify a search-leaf backend's partition (shard in
	// [0, shards)); shards == 0 means the backend is not a shard leaf.
	// Replicas of the same partition share a shard value.
	shard  int
	shards int
}

// emptyRole backs role reads on a zero-value Backend.
var emptyRole backendRole

// Backend is one registered server replica, as seen from the
// frontend: its address, which stage pools it belongs to, and the
// liveness and breaker state routing decisions read.
type Backend struct {
	ID  string // stable identity, defaults to host:port
	URL string // base URL, e.g. http://10.0.0.7:8080

	role atomic.Pointer[backendRole] // kinds + shard assignment (see setRole)

	healthy  atomic.Bool  // last active /readyz probe returned 200
	draining atomic.Bool  // last probe returned 503 (graceful drain)
	inflight atomic.Int64 // requests this frontend has outstanding here

	breaker *breaker
	// latency is this backend's child of cluster_backend_latency_seconds:
	// frontend-observed attempt latency, network included. /backends
	// summarises it and /loadstate ships its buckets to the autoscaler.
	latency *telemetry.Histogram
}

// curRole returns the current role snapshot (never nil).
func (b *Backend) curRole() *backendRole {
	if r := b.role.Load(); r != nil {
		return r
	}
	return &emptyRole
}

// kinds returns the backend's kind set (nil = all kinds). Callers must
// treat the map as read-only; role changes swap in a fresh map.
func (b *Backend) kinds() map[string]bool { return b.curRole().kinds }

// shardSpec returns the backend's search partition assignment; shards
// is 0 for non-leaf backends.
func (b *Backend) shardSpec() (shard, shards int) {
	r := b.curRole()
	return r.shard, r.shards
}

// setRole atomically replaces the backend's kind set and shard
// assignment. The kinds map must not be mutated after the call.
func (b *Backend) setRole(kinds map[string]bool, shard, shards int) {
	b.role.Store(&backendRole{kinds: kinds, shard: shard, shards: shards})
}

// ParseKinds parses a comma-separated kind list ("asr,qa"); "" and
// "all" mean every kind.
func ParseKinds(s string) (map[string]bool, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "all" {
		return nil, nil
	}
	kinds := map[string]bool{}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		switch k {
		case kindASR, kindQA, kindIMM, KindSearch:
			kinds[k] = true
		case "":
		default:
			return nil, fmt.Errorf("cluster: unknown kind %q (want asr, qa, imm, search, or all)", k)
		}
	}
	if len(kinds) == 0 {
		return nil, nil
	}
	return kinds, nil
}

// ParseShardSpec parses an "i/N" shard assignment (e.g. "1/4") into
// (shard, shards), validating 0 <= i < N.
func ParseShardSpec(spec string) (int, int, error) {
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("cluster: shard spec %q: want i/N (e.g. 1/4)", spec)
	}
	si, err1 := strconv.Atoi(strings.TrimSpace(i))
	sn, err2 := strconv.Atoi(strings.TrimSpace(n))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("cluster: shard spec %q: want i/N (e.g. 1/4)", spec)
	}
	if sn < 1 || si < 0 || si >= sn {
		return 0, 0, fmt.Errorf("cluster: shard spec %q: shard index must be in [0,%d)", spec, sn)
	}
	return si, sn, nil
}

// KindsString renders the backend's pools for display ("all" when
// unrestricted).
func (b *Backend) KindsString() string {
	kinds := b.kinds()
	if len(kinds) == 0 {
		return "all"
	}
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// serves reports whether the backend belongs to the kind's pool. The
// search pool is opt-in: a kind-less registration means "every pipeline
// stage", but only a leaf that explicitly declared kind search (and so
// carries a shard assignment and exposes /v1/shard/search) may receive
// scatter-gather arms.
func (b *Backend) serves(kind string) bool {
	kinds := b.kinds()
	if kind == KindSearch {
		return kinds[kind]
	}
	return len(kinds) == 0 || kinds[kind]
}

// ready reports whether the router may send new work here: the last
// active probe passed and the backend is not draining. The breaker is
// a separate, per-attempt gate.
func (b *Backend) ready() bool {
	return b.healthy.Load() && !b.draining.Load()
}

// registry is the frontend's view of the backend pool: add/remove
// (static config or the /register endpoint), periodic active health
// checks against each backend's /readyz, and ready-set queries for the
// router. All methods are concurrency-safe.
type registry struct {
	mu       sync.Mutex
	backends map[string]*Backend
}

// newRegistry returns an empty registry.
func newRegistry() *registry {
	return &registry{backends: map[string]*Backend{}}
}

// newBackend builds a Backend from a base URL and kind list, with the
// given breaker. The ID is the URL's host:port.
func newBackend(rawURL, kinds string, breaker *breaker) (*Backend, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad backend URL %q: %w", rawURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: backend URL %q needs scheme and host", rawURL)
	}
	km, err := ParseKinds(kinds)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		ID:      u.Host,
		URL:     strings.TrimRight(u.String(), "/"),
		breaker: breaker,
	}
	b.setRole(km, 0, 0)
	return b, nil
}

// add registers a backend. Re-adding an existing ID keeps the original
// entry (preserving its breaker, health, and latency state across
// re-registration — a restarting backend re-announces itself
// idempotently) but adopts the announced kinds and shard assignment: a
// replica respawned into a different role (asr-only → all, or a new
// partition) must be routed by what it is now, not what it was.
func (r *registry) add(b *Backend) *Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.backends[b.ID]; ok {
		old.role.Store(b.curRole())
		return old
	}
	r.backends[b.ID] = b
	return b
}

// remove deregisters a backend by ID; it reports whether it was present.
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.backends[id]
	delete(r.backends, id)
	return ok
}

// all returns every registered backend, sorted by ID.
func (r *registry) all() []*Backend {
	r.mu.Lock()
	out := make([]*Backend, 0, len(r.backends))
	for _, b := range r.backends {
		out = append(out, b)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// readyFor returns the backends the router may consider for a kind:
// in the kind's pool, probe-healthy, and not draining.
func (r *registry) readyFor(kind string) []*Backend {
	all := r.all()
	out := all[:0]
	for _, b := range all {
		if b.ready() && b.serves(kind) {
			out = append(out, b)
		}
	}
	return out
}

// checkBackend actively probes one backend's /readyz and updates its
// health/drain state: 200 is ready, 503 is alive-but-draining (the
// graceful-shutdown window — stop sending, don't evict), anything else
// (including transport errors) is unhealthy.
func (r *registry) checkBackend(ctx context.Context, client *http.Client, b *Backend) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		// Clear draining like the other failure paths do: a backend whose
		// URL stops building requests must not stay wedged in "draining"
		// (which status would keep reporting) once it is simply unhealthy.
		b.healthy.Store(false)
		b.draining.Store(false)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		b.draining.Store(false)
		return
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b.healthy.Store(true)
		b.draining.Store(false)
	case http.StatusServiceUnavailable:
		b.healthy.Store(true)
		b.draining.Store(true)
	default:
		b.healthy.Store(false)
		b.draining.Store(false)
	}
}

// checkOnce probes every backend concurrently and waits for the round
// to finish.
func (r *registry) checkOnce(ctx context.Context, client *http.Client) {
	var wg sync.WaitGroup
	for _, b := range r.all() {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			r.checkBackend(ctx, client, b)
		}(b)
	}
	wg.Wait()
}

// startChecks probes all backends every interval until the returned
// stop function is called (stop waits for the loop to exit).
func (r *registry) startChecks(interval time.Duration, client *http.Client) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.checkOnce(ctx, client)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// BackendStatus is the JSON shape of one backend in the frontend's
// /backends listing — the operator's one-glance pool view.
type BackendStatus struct {
	ID       string            `json:"id"`
	URL      string            `json:"url"`
	Kinds    string            `json:"kinds"`
	Shard    string            `json:"shard,omitempty"` // "i/N" for search leaves
	Ready    bool              `json:"ready"`
	Draining bool              `json:"draining"`
	Breaker  string            `json:"breaker"`
	Inflight int64             `json:"inflight"`
	Latency  telemetry.Summary `json:"latency"`
}

// status snapshots every backend for /backends.
func (r *registry) status() []BackendStatus {
	all := r.all()
	out := make([]BackendStatus, len(all))
	for i, b := range all {
		shardLabel := ""
		if shard, shards := b.shardSpec(); shards > 0 {
			shardLabel = fmt.Sprintf("%d/%d", shard, shards)
		}
		out[i] = BackendStatus{
			ID:       b.ID,
			URL:      b.URL,
			Kinds:    b.KindsString(),
			Shard:    shardLabel,
			Ready:    b.ready(),
			Draining: b.draining.Load(),
			Breaker:  b.breaker.currentState().String(),
			Inflight: b.inflight.Load(),
			Latency:  b.latency.Summarize(),
		}
	}
	return out
}

// Registration is the JSON body a backend POSTs to the frontend's
// /register (and /deregister) endpoint when it boots in backend mode.
type Registration struct {
	URL   string `json:"url"`             // backend base URL, reachable from the frontend
	Kinds string `json:"kinds,omitempty"` // comma-separated pools; ""/"all" = every kind

	// Shard/Shards announce a search leaf's partition ("-shard i/N");
	// zero values for every other backend kind.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// register announces a backend to a frontend. Backends call this on
// startup (and may retry: the frontend might boot later).
func register(client *http.Client, frontendURL string, reg Registration) error {
	return postJSON(client, strings.TrimRight(frontendURL, "/")+"/register", reg)
}

// deregister withdraws a backend from a frontend ahead of shutdown, so
// the router stops picking it before the listener closes.
func deregister(client *http.Client, frontendURL string, reg Registration) error {
	return postJSON(client, strings.TrimRight(frontendURL, "/")+"/deregister", reg)
}

func postJSON(client *http.Client, url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s returned %s", url, resp.Status)
	}
	return nil
}
