package dcsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sirius/internal/loadgen"
)

// poissonTrace is the stationary Poisson schedule loadgen plays: n
// arrivals at rate per second, drawn from seed.
func poissonTrace(rate float64, n int, seed int64) []time.Duration {
	return loadgen.Schedule(loadgen.Spec{Rate: rate, Requests: n, Seed: seed})
}

// queue pushes a trace through a single FIFO server.
func queue(arrivals, services []time.Duration) (Result, error) {
	return SimulateCluster(arrivals, services, nil, ClusterSpec{Servers: 1})
}

func TestSimulateQueueValidation(t *testing.T) {
	if _, err := queue(nil, nil); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := queue(make([]time.Duration, 2), make([]time.Duration, 3)); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestSimulateQueueNoContention(t *testing.T) {
	// Widely spaced arrivals: response == service.
	arrivals := []time.Duration{0, time.Second, 2 * time.Second}
	services := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	res, err := queue(arrivals, services)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Mean != 10*time.Millisecond {
		t.Fatalf("mean response %v", res.Response.Mean)
	}
}

func TestSimulateQueueBackToBack(t *testing.T) {
	// Simultaneous arrivals queue up: responses are 1x, 2x, 3x service.
	arrivals := []time.Duration{0, 0, 0}
	services := []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}
	res, err := queue(arrivals, services)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Mean != 2*time.Millisecond {
		t.Fatalf("mean response %v, want 2ms", res.Response.Mean)
	}
}

func TestSimulateQueueTiesServeInIndexOrder(t *testing.T) {
	// Tied arrivals are served in index order: 9 ms then 1 ms give
	// responses of 9 and 10 ms (mean 9.5), not 1 and 10 (mean 5.5).
	res, err := queue([]time.Duration{0, 0}, []time.Duration{9 * time.Millisecond, time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Mean != 9500*time.Microsecond {
		t.Fatalf("mean response %v, want 9.5ms", res.Response.Mean)
	}
}

func TestValidateMM1ClosedForm(t *testing.T) {
	// The trace simulator must agree with the closed form within 10% at
	// moderate load over a long trace.
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		mean := 10 * time.Millisecond
		lambda := rho / mean.Seconds()
		res, err := queue(poissonTrace(lambda, 60000, 42), exponentialServices(mean, 60000, 43))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := NewMM1(mean).ResponseTime(lambda)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.Response.Mean.Seconds()-pred.Seconds()) / pred.Seconds()
		if relErr > 0.10 {
			t.Fatalf("rho=%v: relative error %.3f > 0.10", rho, relErr)
		}
	}
}

func TestDeterministicServiceBeatsMM1(t *testing.T) {
	// M/D/1 waits are half of M/M/1: a constant-service trace must beat
	// the M/M/1 prediction. This is the gap the paper's Fig 17 lower
	// bound leaves on the table for well-behaved services.
	mean := 10 * time.Millisecond
	rho := 0.7
	mu := 1 / mean.Seconds()
	lambda := rho * mu
	n := 40000
	arr := poissonTrace(lambda, n, 7)
	svc := make([]time.Duration, n)
	for i := range svc {
		svc[i] = mean
	}
	res, err := queue(arr, svc)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewMM1(mean).ResponseTime(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Mean >= pred {
		t.Fatalf("M/D/1 response %v must beat M/M/1 %v", res.Response.Mean, pred)
	}
	if res.Response.Mean <= mean {
		t.Fatal("queueing must add delay over bare service time")
	}
}

func TestMeasuredServices(t *testing.T) {
	calls := 0
	ds := MeasuredServices(func(i int) { calls++ }, 5)
	if calls != 5 || len(ds) != 5 {
		t.Fatalf("calls=%d len=%d", calls, len(ds))
	}
	for _, d := range ds {
		if d < 0 {
			t.Fatal("negative duration")
		}
	}
}

// exponentialServices draws n exponential service times with the given
// mean — the M/M/1 assumption.
func exponentialServices(mean time.Duration, n int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.ExpFloat64() * float64(mean))
	}
	return out
}
