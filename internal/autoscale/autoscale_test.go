package autoscale

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/dcsim"
	"sirius/internal/telemetry"
)

// bucketCounts builds a raw count snapshot with n observations at d,
// read the way the controller's source reads a latency family.
func bucketCounts(d time.Duration, n int) []uint64 {
	v := telemetry.NewRegistry().NewHistogramVec("lat", "", "kind")
	h := v.With("k") // a full-length array even when n is 0
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
	return v.Counts()["k"]
}

func TestPlanReplicasCapacity(t *testing.T) {
	// 40ms deterministic service → each replica serves 25 q/s.
	service := bucketCounts(40*time.Millisecond, 500)
	cfg := plannerConfig{Min: 1, Max: 6, SLOTarget: 500 * time.Millisecond, Policy: "rr"}

	// Light load: one replica holds the SLO.
	plan, err := planReplicas(10, service, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Desired != 1 || !plan.Feasible {
		t.Fatalf("light load plan: %+v, want desired 1", plan)
	}
	if plan.PredictedP99 < 40*time.Millisecond/2 || plan.PredictedP99 > cfg.SLOTarget {
		t.Fatalf("light load predicted p99 %v implausible", plan.PredictedP99)
	}

	// 60 q/s exceeds two replicas' 50 q/s capacity: the plan must ask
	// for at least 3, and its prediction must hold the target.
	plan, err = planReplicas(60, service, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Desired < 3 || !plan.Feasible {
		t.Fatalf("surge plan: %+v, want desired >= 3", plan)
	}
	if plan.PredictedP99 > cfg.SLOTarget {
		t.Fatalf("chosen count predicted over target: %+v", plan)
	}

	// Hopeless load saturates at Max rather than failing.
	plan, err = planReplicas(1000, service, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Desired != cfg.Max || plan.Feasible {
		t.Fatalf("infeasible plan: %+v, want saturated at max %d", plan, cfg.Max)
	}

	// Degenerate inputs error instead of planning on nothing.
	if _, err := planReplicas(0, service, cfg); err == nil {
		t.Fatal("zero rate must error")
	}
	if _, err := planReplicas(10, make([]uint64, 65), cfg); err == nil {
		t.Fatal("empty service distribution must error")
	}
}

// fakePool records Spawn/Drain calls; Live is instantaneous.
type fakePool struct {
	mu     sync.Mutex
	live   int
	spawns int
	drains int
	fail   error
}

func (p *fakePool) Spawn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail != nil {
		return p.fail
	}
	p.live++
	p.spawns++
	return nil
}

func (p *fakePool) Drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail != nil {
		return p.fail
	}
	if p.live == 0 {
		return fmt.Errorf("nothing to drain")
	}
	p.live--
	p.drains++
	return nil
}

func (p *fakePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// scriptedSource serves pre-built snapshots in order, then repeats the
// last one.
type scriptedSource struct {
	states []cluster.LoadState
	i      int
}

func (s *scriptedSource) Snapshot(ctx context.Context) (cluster.LoadState, error) {
	st := s.states[s.i]
	if s.i < len(s.states)-1 {
		s.i++
	}
	return st, nil
}

// state builds a cumulative LoadState in this process's bucket layout:
// queries total queries observed at qLat, the same volume of backend
// attempts at sLat.
func state(at time.Time, queries int, qLat, sLat time.Duration) cluster.LoadState {
	var bounds []int64
	for _, b := range telemetry.BucketBounds() {
		bounds = append(bounds, int64(b))
	}
	return cluster.LoadState{
		Time:           at,
		BucketBoundsNs: bounds,
		QueryCounts:    map[string][]uint64{"qa": bucketCounts(qLat, queries)},
		BackendCounts: map[string][]uint64{
			"b1": bucketCounts(sLat, queries),
		},
		SLOTargetNs: int64(500 * time.Millisecond),
	}
}

// harness wires a controller over a scripted source, a fake pool, and
// a fake clock stepped `step` per tick.
type harness struct {
	c     *Controller
	pool  *fakePool
	clock time.Time
	step  time.Duration
}

func newHarness(cfg Config, src Source, step time.Duration) *harness {
	h := &harness{pool: &fakePool{}, clock: time.Unix(0, 0), step: step}
	h.c = NewController(cfg, src, h.pool, nil)
	h.c.Now = func() time.Time { return h.clock }
	return h
}

func (h *harness) tick() status {
	h.clock = h.clock.Add(h.step)
	h.c.tick(context.Background())
	return h.c.snapshot()
}

func TestControllerSurgeSpawnsAndIdleDrains(t *testing.T) {
	base := time.Unix(1000, 0)
	step := 5 * time.Second
	// Cumulative script: idle → 300 queries of surge (60 q/s over one
	// 5s tick at 40ms service) → idle forever after.
	src := &scriptedSource{states: []cluster.LoadState{
		state(base, 0, 0, 0),
		state(base.Add(step), 300, 40*time.Millisecond, 40*time.Millisecond),
		state(base.Add(2*step), 300, 40*time.Millisecond, 40*time.Millisecond),
	}}
	h := newHarness(Config{
		Min: 1, Max: 4,
		Cooldown:   2 * time.Second, // shorter than the 5s tick step
		DownStable: 2,
	}, src, step)

	// Tick 1: first snapshot — converge on the floor.
	st := h.tick()
	if h.pool.Live() != 1 || st.LastDecision != "up" {
		t.Fatalf("cold start: live=%d decision=%s, want 1/up", h.pool.Live(), st.LastDecision)
	}

	// Tick 2: the surge window demands >= 3 replicas (60 q/s against
	// 25 q/s per-replica capacity); the gap is spawned in one action.
	st = h.tick()
	if st.Desired < 3 {
		t.Fatalf("surge desired %d, want >= 3", st.Desired)
	}
	if h.pool.Live() != st.Desired || st.LastDecision != "up" {
		t.Fatalf("surge: live=%d desired=%d decision=%s", h.pool.Live(), st.Desired, st.LastDecision)
	}
	if st.Rate < 50 || st.Rate > 70 {
		t.Fatalf("observed rate %.1f, want ~60", st.Rate)
	}
	if st.ObservedP99 < 20*time.Millisecond || st.ObservedP99 > 80*time.Millisecond {
		t.Fatalf("observed p99 %v, want ~40ms", st.ObservedP99)
	}
	if st.PredictedP99 <= 0 {
		t.Fatal("no predicted p99 recorded")
	}
	surged := h.pool.Live()

	// Idle ticks: desired falls to Min, but draining waits for
	// DownStable consecutive ticks — and then steps one replica at a
	// time, never below Min.
	st = h.tick() // idle #1: hold (streak 1 of 2)
	if st.LastDecision != "hold" || h.pool.Live() != surged {
		t.Fatalf("idle #1: decision=%s live=%d, want hold/%d", st.LastDecision, h.pool.Live(), surged)
	}
	st = h.tick() // idle #2: streak reached — drain one
	if st.LastDecision != "down" || h.pool.Live() != surged-1 {
		t.Fatalf("idle #2: decision=%s live=%d, want down/%d", st.LastDecision, h.pool.Live(), surged-1)
	}
	for i := 0; i < 20 && h.pool.Live() > 1; i++ {
		h.tick()
	}
	if h.pool.Live() != 1 {
		t.Fatalf("idle pool settled at %d, want min 1", h.pool.Live())
	}
	for i := 0; i < 5; i++ {
		st = h.tick()
	}
	if h.pool.Live() != 1 || st.LastDecision != "hold" {
		t.Fatalf("pool at min: live=%d decision=%s, want 1/hold", h.pool.Live(), st.LastDecision)
	}
	if h.pool.drains >= h.pool.spawns {
		t.Fatalf("spawns %d vs drains %d inconsistent with settling at min", h.pool.spawns, h.pool.drains)
	}
}

// The plan models the routing the frontend actually does: a /loadstate
// reporting p2c is simulated as power of two choices, not round-robin.
func TestControllerPlansWithFrontendPolicy(t *testing.T) {
	base := time.Unix(1000, 0)
	step := 5 * time.Second
	idle, surge := state(base, 0, 0, 0), state(base.Add(step), 300, 40*time.Millisecond, 40*time.Millisecond)
	idle.Policy, surge.Policy = cluster.PolicyP2C, cluster.PolicyP2C
	h := newHarness(Config{Min: 1, Max: 4}, &scriptedSource{states: []cluster.LoadState{idle, surge}}, step)
	h.tick()
	got := h.tick().PredictedP99

	// The same window planned each way; the fixture must tell them apart.
	service := bucketCounts(40*time.Millisecond, 300)
	plan := func(policy string) time.Duration {
		p, err := planReplicas(60, service, plannerConfig{Min: 1, Max: 4, SLOTarget: 500 * time.Millisecond, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return p.PredictedP99
	}
	p2c, rr := plan(dcsim.PolicyP2C), plan(dcsim.PolicyRR)
	if p2c == rr {
		t.Fatalf("fixture predicts %v under both policies", p2c)
	}
	if got != p2c {
		t.Fatalf("predicted p99 %v, want p2c's %v (round-robin's is %v)", got, p2c, rr)
	}
}

// A load flapping across the 1-vs-2-replica boundary every tick must
// not flap the pool: the down-streak resets whenever demand rises, so
// only sustained overcapacity drains.
func TestControllerNoFlappingOnBoundaryLoad(t *testing.T) {
	base := time.Unix(1000, 0)
	step := 5 * time.Second
	// Alternate busy (40 q/s → needs 2) and quiet (4 q/s → needs 1)
	// windows. Cumulative counts: each busy window adds 200 queries,
	// each quiet window adds 20.
	states := []cluster.LoadState{state(base, 0, 0, 0)}
	total := 0
	for i := 1; i <= 12; i++ {
		if i%2 == 1 {
			total += 200
		} else {
			total += 20
		}
		states = append(states, state(base.Add(time.Duration(i)*step), total, 40*time.Millisecond, 40*time.Millisecond))
	}
	src := &scriptedSource{states: states}
	h := newHarness(Config{
		Min: 1, Max: 4,
		Cooldown:   time.Second,
		DownStable: 3, // a streak the alternation never reaches
	}, src, step)

	h.tick() // cold start to min
	peak := 0
	for i := 0; i < 12; i++ {
		st := h.tick()
		if st.LastDecision == "down" {
			t.Fatalf("tick %d: drained on alternating boundary load", i)
		}
		if h.pool.Live() > peak {
			peak = h.pool.Live()
		}
	}
	if peak < 2 {
		t.Fatalf("busy windows never scaled up (peak %d)", peak)
	}
	if h.pool.Live() != peak {
		t.Fatalf("pool flapped: live %d after peaking at %d", h.pool.Live(), peak)
	}
	if h.pool.drains != 0 {
		t.Fatalf("%d drains on boundary load, want 0", h.pool.drains)
	}
}

// Cooldown gates consecutive scale-ups, and errors from the pool land
// in the decision counter without wedging the loop.
func TestControllerCooldownAndErrors(t *testing.T) {
	base := time.Unix(1000, 0)
	step := time.Second
	// Every tick demands more than one replica.
	states := []cluster.LoadState{state(base, 0, 0, 0)}
	for i := 1; i <= 6; i++ {
		states = append(states, state(base.Add(time.Duration(i)*step), i*60, 40*time.Millisecond, 40*time.Millisecond))
	}
	src := &scriptedSource{states: states}
	h := newHarness(Config{
		Min: 1, Max: 4,
		Cooldown:   10 * time.Second, // far longer than the tick step
		DownStable: 2,
	}, src, step)

	st := h.tick() // cold start spawns min and starts the cooldown
	if h.pool.Live() != 1 {
		t.Fatalf("cold start live %d", h.pool.Live())
	}
	for i := 0; i < 5; i++ {
		st = h.tick()
	}
	if h.pool.Live() != 1 || st.LastDecision != "hold" {
		t.Fatalf("cooldown violated: live=%d decision=%s", h.pool.Live(), st.LastDecision)
	}

	// Past the cooldown the pending surge executes...
	h.clock = h.clock.Add(10 * time.Second)
	h.c.tick(context.Background())
	if h.pool.Live() <= 1 {
		t.Fatalf("expired cooldown did not release the scale-up (live %d)", h.pool.Live())
	}

	// ...and a failing pool reports an error decision once the idle
	// down-streak actually asks it to drain.
	h.pool.fail = fmt.Errorf("fork bomb averted")
	for i := 0; i < 3; i++ {
		h.clock = h.clock.Add(time.Hour)
		h.c.tick(context.Background())
	}
	if s := h.c.snapshot(); s.LastDecision != "error" || s.LastError == "" {
		t.Fatalf("pool failure not surfaced: %+v", s)
	}
}

// A /loadstate the planner cannot read bucket for bucket is refused
// before it is diffed: a layout with one bound more than ours, count
// arrays one entry short, or no SLO target from either side. Each is an
// error decision naming the field, and the pool does not move. The
// refused snapshots do not become the diff base either: the next good
// one still plans the surge against the idle start.
func TestControllerRejectsMisalignedLoadState(t *testing.T) {
	base := time.Unix(1000, 0)
	step := 5 * time.Second
	surge := func() cluster.LoadState {
		return state(base.Add(step), 300, 40*time.Millisecond, 40*time.Millisecond)
	}
	extraBound := surge()
	last := extraBound.BucketBoundsNs[len(extraBound.BucketBoundsNs)-1]
	extraBound.BucketBoundsNs = append(extraBound.BucketBoundsNs, 2*last)
	short := surge()
	for _, fam := range []map[string][]uint64{short.QueryCounts, short.BackendCounts} {
		for label, counts := range fam {
			fam[label] = counts[:len(counts)-1]
		}
	}
	noTarget := surge()
	noTarget.SLOTargetNs = 0
	src := &scriptedSource{states: []cluster.LoadState{
		state(base, 0, 0, 0), extraBound, short, noTarget, surge(),
	}}
	h := newHarness(Config{Min: 1, Max: 4}, src, step)

	if h.tick(); h.pool.Live() != 1 {
		t.Fatalf("cold start live %d, want 1", h.pool.Live())
	}
	for _, field := range []string{"bucket_bounds_ns", "counts", "slo_target_ns"} {
		st := h.tick()
		if st.LastDecision != "error" || !strings.Contains(st.LastError, field) {
			t.Fatalf("snapshot with a bad %s: decision %q error %q, want an error naming it", field, st.LastDecision, st.LastError)
		}
		if h.pool.Live() != 1 || h.pool.spawns != 1 || h.pool.drains != 0 {
			t.Fatalf("bad %s moved the pool: live %d, %d spawns, %d drains", field, h.pool.Live(), h.pool.spawns, h.pool.drains)
		}
	}
	if st := h.tick(); st.LastDecision != "up" || st.Desired < 3 {
		t.Fatalf("good surge after the refusals: decision %q desired %d, want up to >= 3", st.LastDecision, st.Desired)
	}
}
