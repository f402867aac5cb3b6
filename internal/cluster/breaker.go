package cluster

import (
	"sync"
	"time"
)

// breakerState is the circuit breaker's position. The breaker sits
// between the router and one backend: Closed passes traffic, Open
// fails fast after consecutive errors (sparing a struggling replica
// the retry storm that would keep it down), HalfOpen admits a single
// probe to test recovery.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String returns the state as a metrics-label-friendly word.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// breaker is a per-backend circuit breaker: Threshold consecutive
// failures open it; after OpenFor it admits one probe (half-open); the
// probe's outcome closes or re-opens it. Concurrency-safe.
type breaker struct {
	mu         sync.Mutex
	state      breakerState
	failures   int
	openedAt   time.Time
	probing    bool      // half-open: a probe is already in flight
	probeStart time.Time // when the current probe claimed the slot

	threshold    int
	openFor      time.Duration
	onTransition func(from, to breakerState)
	now          func() time.Time // injectable for tests
}

// newBreaker returns a closed breaker. onTransition (may be nil) fires
// under the breaker lock on every state change — keep it cheap (e.g. a
// counter increment).
func newBreaker(threshold int, openFor time.Duration, onTransition func(from, to breakerState)) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if openFor <= 0 {
		openFor = time.Second
	}
	return &breaker{
		threshold:    threshold,
		openFor:      openFor,
		onTransition: onTransition,
		now:          time.Now,
	}
}

func (b *breaker) transition(to breakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// allow reports whether an attempt may be sent now. An open breaker
// whose cool-off elapsed flips to half-open and claims the probe slot
// for this caller; a half-open breaker admits only that one probe. A
// probe slot held longer than OpenFor is reclaimed — the probe attempt
// died without reporting, and an unreclaimed slot would reject every
// future attempt and blackhole the backend with no recovery path.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.transition(breakerHalfOpen)
		b.probing = true
		b.probeStart = b.now()
		return true
	default: // breakerHalfOpen
		if b.probing && b.now().Sub(b.probeStart) < b.openFor {
			return false
		}
		b.probing = true
		b.probeStart = b.now()
		return true
	}
}

// cancelProbe releases the half-open probe slot without recording a
// verdict. An attempt canceled mid-flight (hedge loser, client
// disconnect) says nothing about backend health, so it must not close
// or re-open the breaker — but if it held the probe slot, leaving the
// slot claimed would wedge the breaker half-open forever.
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// record feeds an attempt's outcome back. Closed counts consecutive
// failures toward Threshold; half-open resolves the probe; outcomes
// arriving while open (stragglers from before it opened) are ignored.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.transition(breakerOpen)
		}
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.failures = 0
			b.transition(breakerClosed)
		} else {
			b.openedAt = b.now()
			b.transition(breakerOpen)
		}
	}
}

// currentState returns the current state (open flips to half-open lazily in
// allow, so an expired open breaker still reads as open here).
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
