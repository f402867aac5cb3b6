package autoscale

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/dcsim"
	"sirius/internal/telemetry"
)

// Pool is the actuator half of the loop: something that can add a
// replica, remove one, and report how many it is running. The real
// implementation (ProcPool) spawns sirius-server processes that
// self-register with the frontend; tests use a fake.
type Pool interface {
	// Spawn starts one new replica (asynchronously — it becomes ready
	// once it registers and passes health checks).
	Spawn() error
	// Drain gracefully removes one replica (unready → deregister →
	// shutdown).
	Drain() error
	// Live returns the number of replicas the pool is running,
	// including ones still starting up.
	Live() int
}

// Config tunes the control loop.
type Config struct {
	Min, Max  int           // replica bounds (inclusive)
	SLOTarget time.Duration // p99 objective; 0 adopts the frontend's own target
	Interval  time.Duration // tick period for Run
	Cooldown  time.Duration // minimum gap between scaling actions

	// DownStable is how many consecutive ticks must demand a smaller
	// pool before one replica is drained — the hysteresis that stops a
	// noisy boundary load from flapping the pool. Scale-up has no such
	// damper: under-provisioning burns SLO, over-provisioning only
	// burns machines.
	DownStable int
}

// defaultConfig is a conservative starting posture.
func defaultConfig() Config {
	return Config{
		Min:        1,
		Max:        4,
		Interval:   5 * time.Second,
		Cooldown:   15 * time.Second,
		DownStable: 3,
	}
}

// status is the /autoscale JSON view of the controller's last tick.
type status struct {
	Time         time.Time     `json:"time"`
	Rate         float64       `json:"rate_qps"`         // observed interval arrival rate
	ObservedP99  time.Duration `json:"observed_p99_ns"`  // measured frontend tail (interval)
	PredictedP99 time.Duration `json:"predicted_p99_ns"` // dcsim tail at the chosen count
	Desired      int           `json:"desired_replicas"` // what the plan asked for
	Live         int           `json:"live_replicas"`    // processes the pool runs
	Ready        int           `json:"ready_replicas"`   // backends the frontend calls ready
	Min          int           `json:"min_replicas"`
	Max          int           `json:"max_replicas"`
	LastDecision string        `json:"last_decision"` // up/down/hold/error/init
	LastScaleAt  time.Time     `json:"last_scale_at,omitzero"`
	Ticks        uint64        `json:"ticks"`
	Spawned      uint64        `json:"spawned_total"`
	Drained      uint64        `json:"drained_total"`
	LastError    string        `json:"last_error,omitempty"`
}

// Controller runs the observe → simulate → reconcile loop.
type Controller struct {
	cfg  Config
	src  Source
	pool Pool

	// Now is the controller's clock, injectable for tests. Defaults to
	// time.Now. Set before the first tick.
	Now func() time.Time

	mu          sync.Mutex
	prev        *cluster.LoadState
	lastService []uint64 // most recent non-empty interval service distribution
	lastScale   time.Time
	downStreak  int
	status      status

	decisions *telemetry.CounterVec // sirius_autoscale_decisions_total{action}
	liveG     *telemetry.Gauge      // sirius_autoscale_replicas_live
	desiredG  *telemetry.Gauge      // sirius_autoscale_replicas_desired
}

// NewController wires a controller over a snapshot source and a
// replica pool, registering its decision telemetry on reg (nil registers
// it on a private registry — tests).
func NewController(cfg Config, src Source, pool Pool, reg *telemetry.Registry) *Controller {
	def := defaultConfig()
	if cfg.Min < 1 {
		cfg.Min = def.Min
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.Cooldown < 0 {
		cfg.Cooldown = def.Cooldown
	}
	if cfg.DownStable < 1 {
		cfg.DownStable = def.DownStable
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Controller{
		cfg:  cfg,
		src:  src,
		pool: pool,
		Now:  time.Now,
	}
	c.status.Min, c.status.Max = cfg.Min, cfg.Max
	c.status.LastDecision = "init"
	c.decisions = reg.NewCounterVec("sirius_autoscale_decisions_total",
		"Autoscaler reconcile decisions, by action (up/down/hold/error).", "action")
	c.liveG = reg.NewGauge("sirius_autoscale_replicas_live",
		"Replicas the autoscaler's pool is running (including starting ones).")
	c.desiredG = reg.NewGauge("sirius_autoscale_replicas_desired",
		"Replica count the last plan asked for.")
	reg.NewGaugeFunc("sirius_autoscale_predicted_p99_seconds",
		"dcsim-predicted p99 at the chosen replica count.", func() float64 {
			return c.snapshot().PredictedP99.Seconds()
		})
	reg.NewGaugeFunc("sirius_autoscale_observed_p99_seconds",
		"Measured frontend p99 over the last tick interval.", func() float64 {
			return c.snapshot().ObservedP99.Seconds()
		})
	reg.NewGaugeFunc("sirius_autoscale_rate_qps",
		"Observed arrival rate over the last tick interval.", func() float64 {
			return c.snapshot().Rate
		})
	return c
}

// snapshot returns the last tick's view.
func (c *Controller) snapshot() status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Handler serves the last tick's status as JSON — the /autoscale endpoint.
func (c *Controller) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.snapshot())
	})
}

// Run ticks the loop every cfg.Interval until ctx is done.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.tick(ctx)
		}
	}
}

// tick runs one observe → simulate → reconcile pass. Exported so tests
// (and operators via a future endpoint) can step the loop explicitly.
func (c *Controller) tick(ctx context.Context) {
	now := c.Now()
	st, err := c.src.Snapshot(ctx)
	if err == nil {
		err = checkLoadState(&st, c.cfg.SLOTarget > 0)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.status.Ticks++
	c.status.Time = now
	c.status.Live = c.pool.Live()
	c.liveG.Set(int64(c.status.Live))
	if err != nil {
		// A snapshot that cannot be read leaves the pool and the diff
		// base alone: the next good one diffs against the last good one.
		c.decide("error", err.Error())
		return
	}
	prev := c.prev
	c.prev = &st
	if prev == nil {
		// First snapshot: nothing to diff yet. Still enforce the floor so
		// a cold start converges on Min without waiting for traffic.
		c.status.LastDecision = "init"
		c.reconcile(now, c.cfg.Min)
		return
	}

	w := diffWindow(prev, &st)
	c.status.Rate = w.rate
	c.status.ObservedP99 = w.p99
	c.status.Ready = w.ready

	// Retain the freshest service-time evidence: an idle interval has no
	// new attempts, but the last busy interval's distribution is still
	// the best guess for what the next query will cost.
	service := w.service
	if countTotal(service) == 0 {
		service = c.lastService
	} else {
		c.lastService = service
	}

	desired := c.cfg.Min
	if w.arrivals > 0 && countTotal(service) > 0 {
		target := c.cfg.SLOTarget
		if target <= 0 {
			target = time.Duration(st.SLOTargetNs)
		}
		plan, perr := planReplicas(w.rate, service, plannerConfig{
			Min: c.cfg.Min, Max: c.cfg.Max,
			SLOTarget: target,
			Policy:    simPolicy(st.Policy),
		})
		if perr != nil {
			c.decide("error", perr.Error())
			return
		}
		desired = plan.Desired
		c.status.PredictedP99 = plan.PredictedP99
	}
	c.reconcile(now, desired)
}

// reconcile moves the pool toward desired under the bounds, cooldown,
// and scale-down hysteresis. Caller holds c.mu.
func (c *Controller) reconcile(now time.Time, desired int) {
	if desired < c.cfg.Min {
		desired = c.cfg.Min
	}
	if desired > c.cfg.Max {
		desired = c.cfg.Max
	}
	c.status.Desired = desired
	c.desiredG.Set(int64(desired))
	live := c.pool.Live()
	cooled := c.lastScale.IsZero() || now.Sub(c.lastScale) >= c.cfg.Cooldown

	switch {
	case desired > live:
		c.downStreak = 0
		if !cooled {
			c.decide("hold", "")
			return
		}
		// Spawn the whole gap at once: replicas take seconds to become
		// ready, and stepping one per cooldown would chase a surge from
		// behind.
		for i := live; i < desired; i++ {
			if err := c.pool.Spawn(); err != nil {
				c.decide("error", err.Error())
				return
			}
			c.status.Spawned++
		}
		c.lastScale = now
		c.status.LastScaleAt = now
		c.decide("up", "")
	case desired < live:
		c.downStreak++
		if c.downStreak < c.cfg.DownStable || !cooled {
			c.decide("hold", "")
			return
		}
		// Drain one replica per action: scale-down is cheap to extend and
		// expensive to regret, so it steps conservatively.
		if err := c.pool.Drain(); err != nil {
			c.decide("error", err.Error())
			return
		}
		c.status.Drained++
		c.downStreak = 0
		c.lastScale = now
		c.status.LastScaleAt = now
		c.decide("down", "")
	default:
		c.downStreak = 0
		c.decide("hold", "")
	}
	c.status.Live = c.pool.Live()
	c.liveG.Set(int64(c.status.Live))
}

// decide records the tick's outcome. Caller holds c.mu.
func (c *Controller) decide(action, errMsg string) {
	c.decisions.With(action).Inc()
	c.status.LastDecision = action
	c.status.LastError = errMsg
}

// simPolicy is the dcsim policy that models the frontend's routing
// policy, adopted from each snapshot like its SLO target: power of two
// choices for p2c, round-robin otherwise.
func simPolicy(p cluster.Policy) string {
	if p == cluster.PolicyP2C {
		return dcsim.PolicyP2C
	}
	return dcsim.PolicyRR
}

// countTotal sums a bucket-count snapshot.
func countTotal(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}
