package dcsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonArrivalsStatistics(t *testing.T) {
	rate := 100.0
	n := 20000
	arr := PoissonArrivals(rate, n, 1)
	if len(arr) != n {
		t.Fatalf("n=%d", len(arr))
	}
	for i := 1; i < n; i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals must be non-decreasing")
		}
	}
	// Mean inter-arrival ~ 1/rate.
	meanGap := arr[n-1].Seconds() / float64(n-1)
	if math.Abs(meanGap-1/rate) > 0.1/rate {
		t.Fatalf("mean gap %v, want ~%v", meanGap, 1/rate)
	}
}

// queue pushes a trace through a single FIFO server.
func queue(arrivals, services []time.Duration) (ClusterResult, error) {
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
	// Widely spaced arrivals: response == service, utilization low.
	arrivals := []time.Duration{0, time.Second, 2 * time.Second}
	services := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	res, err := queue(arrivals, services)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Mean != 10*time.Millisecond {
		t.Fatalf("mean response %v", res.Response.Mean)
	}
	if res.Utilization > 0.05 {
		t.Fatalf("utilization %v", res.Utilization)
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

func TestValidateMM1ClosedForm(t *testing.T) {
	// The trace simulator must agree with the closed form within 10% at
	// moderate load over a long trace.
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		mean := 10 * time.Millisecond
		lambda := rho / mean.Seconds()
		res, err := queue(PoissonArrivals(lambda, 60000, 42), exponentialServices(mean, 60000, 43))
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
	arr := PoissonArrivals(lambda, n, 7)
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
