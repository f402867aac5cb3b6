package loadgen

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	ok := func(int) (string, string, error) { return "answer", "", nil }
	if _, err := Run(ctx, Spec{Rate: 0, Requests: 10}, ok); err == nil {
		t.Fatal("rate 0 must error")
	}
	if _, err := Run(ctx, Spec{Rate: 10, Requests: 0}, ok); err == nil {
		t.Fatal("requests 0 must error")
	}
}

func TestRunCountsAndPercentiles(t *testing.T) {
	var calls int64
	res, err := Run(context.Background(), Spec{Rate: 2000, Requests: 200, Seed: 1},
		func(i int) (string, string, error) {
			atomic.AddInt64(&calls, 1)
			time.Sleep(time.Millisecond)
			if i%2 == 0 {
				return "answer", "a:1", nil
			}
			return "action", "b:2", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 200 || res.Sent != 200 || res.Errors != 0 {
		t.Fatalf("calls=%d res=%+v", calls, res)
	}
	if res.Latency.Count != 200 {
		t.Fatalf("latency count %d", res.Latency.Count)
	}
	if res.Latency.Mean < time.Millisecond {
		t.Fatalf("mean %v below service time", res.Latency.Mean)
	}
	s := res.Latency
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentile ordering: %+v", s)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput")
	}
	// Per-kind split: both kinds present with half the requests each.
	if res.PerKind["answer"].Count != 100 || res.PerKind["action"].Count != 100 {
		t.Fatalf("per-kind counts: %+v", res.PerKind)
	}
	// Per-target split mirrors the kind split (each kind hit one target).
	if res.PerTarget["a:1"].Count != 100 || res.PerTarget["b:2"].Count != 100 {
		t.Fatalf("per-target counts: %+v", res.PerTarget)
	}
	rep := res.String()
	for _, want := range []string{"p99", "p999", "answer", "action", "per target", "a:1", "b:2"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report %q missing %q", rep, want)
		}
	}
}

func TestRunRecordsErrors(t *testing.T) {
	res, err := Run(context.Background(), Spec{Rate: 5000, Requests: 50, Seed: 2},
		func(i int) (string, string, error) {
			if i%2 == 0 {
				return "", "", errors.New("boom")
			}
			return "answer", "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 25 {
		t.Fatalf("errors=%d", res.Errors)
	}
	// Failed requests must not pollute the latency distribution.
	if res.Latency.Count != 25 {
		t.Fatalf("latency count %d, want 25", res.Latency.Count)
	}
	// All failing: Run itself errors.
	if _, err := Run(context.Background(), Spec{Rate: 5000, Requests: 10, Seed: 3},
		func(int) (string, string, error) { return "", "", errors.New("x") }); err == nil {
		t.Fatal("all-error run must fail")
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Rate: 1, Requests: 100, Seed: 4}, func(int) (string, string, error) { return "answer", "", nil })
	if err == nil {
		t.Fatal("cancelled context must abort")
	}
}

// When the context ends with sends in flight, Run joins them before it
// returns: by then every send it started has returned and fired
// OnResult. The first held requests arrive at once and the last is
// scheduled far off, so Run is waiting on the schedule, with every
// started send held shut, when the context ends.
func TestRunJoinsSendsOnCancel(t *testing.T) {
	const held = 32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{}, held)
	release := make(chan struct{})
	var finished atomic.Int64
	spec := Spec{Rate: 1e9, RampTo: 1e-3, Requests: held + 1, Seed: 5,
		OnResult: func(int, string, string, time.Duration, error) { finished.Add(1) }}

	done := make(chan struct{})
	var err error
	var finishedAtReturn int64
	go func() {
		defer close(done)
		_, err = Run(ctx, spec, func(int) (string, string, error) {
			entered <- struct{}{}
			<-release
			return "answer", "", nil
		})
		finishedAtReturn = finished.Load()
	}()
	for i := 0; i < held; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d sends started", i, held)
		}
	}
	cancel()
	close(release)
	<-done
	if err == nil {
		t.Fatal("a cancelled run must report the context's error")
	}
	if finishedAtReturn != held {
		t.Fatalf("Run returned with %d of %d started sends finished", finishedAtReturn, held)
	}
}

// Ramp mode must accelerate the arrival process: mean inter-arrival
// gaps in the first quarter of the schedule sit near 1/Rate, the last
// quarter near 1/RampTo, and a constant-rate schedule of the same seed
// shows no such skew.
func TestRampArrivalSchedule(t *testing.T) {
	const n = 2000
	meanGap := func(a []time.Duration, lo, hi int) float64 {
		var sum time.Duration
		for i := lo + 1; i < hi; i++ {
			sum += a[i] - a[i-1]
		}
		return sum.Seconds() / float64(hi-lo-1)
	}

	ramp := Schedule(Spec{Rate: 10, RampTo: 100, Requests: n, Seed: 7})
	early := meanGap(ramp, 0, n/4)
	late := meanGap(ramp, 3*n/4, n)
	if early < 0.5/10 || early > 2.0/10 {
		t.Fatalf("early mean gap %.4fs, want ≈ %.4fs", early, 1.0/10)
	}
	if late < 0.5/100 || late > 2.0/100 {
		t.Fatalf("late mean gap %.4fs, want ≈ %.4fs", late, 1.0/100)
	}
	if early < 3*late {
		t.Fatalf("ramp did not accelerate: early %.4fs vs late %.4fs", early, late)
	}

	flat := Schedule(Spec{Rate: 10, Requests: n, Seed: 7})
	fe, fl := meanGap(flat, 0, n/4), meanGap(flat, 3*n/4, n)
	if fe > 1.5*fl || fl > 1.5*fe {
		t.Fatalf("constant schedule skewed: early %.4fs late %.4fs", fe, fl)
	}

	// RampTo == Rate degenerates to the constant process exactly.
	same := Schedule(Spec{Rate: 10, RampTo: 10, Requests: n, Seed: 7})
	for i := range same {
		if same[i] != flat[i] {
			t.Fatalf("RampTo==Rate diverged at %d: %v vs %v", i, same[i], flat[i])
		}
	}

	// Negative ramp target is rejected.
	if _, err := Run(context.Background(), Spec{Rate: 1, RampTo: -1, Requests: 1},
		func(int) (string, string, error) { return "", "", nil }); err == nil {
		t.Fatal("negative RampTo must error")
	}
}

func TestPoissonArrivalsStatistics(t *testing.T) {
	rate := 100.0
	n := 20000
	arr := Schedule(Spec{Rate: rate, Requests: n, Seed: 1})
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
