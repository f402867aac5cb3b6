package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// A server-wide stall must show in the latency of the requests that
// were due while it lasted, although the generator could only send them
// once a worker came free: latency runs from the due time.
func TestPacedChargesStallToRequestsDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	stalled := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // every request queues behind the one that stalls
		once.Do(func() {
			stalled <- time.Now()
			time.Sleep(stall)
		})
		mu.Unlock()
	}))
	defer srv.Close()

	send := func(ctx context.Context, op int, id string) outcome {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return outcome{failed: true}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return outcome{}
	}
	// One request every 10 ms for 400 ms; the first one stalls.
	var due []time.Duration
	for d := time.Duration(0); d < 400*time.Millisecond; d += 10 * time.Millisecond {
		due = append(due, d)
	}
	begin := time.Now()
	ph := runPaced(context.Background(), "paced", due, 5*time.Second, passOrder(1, len(due), 1), send)
	stallStart := (<-stalled).Sub(begin)

	if ph.attempted() != len(due) || ph.failed() != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", ph.attempted(), ph.failed(), len(due))
	}
	during, late := 0, 0
	for _, s := range ph.samples {
		switch {
		case s.due > stallStart+10*time.Millisecond && s.due < stallStart+stall/2:
			// Due in the first half of the stall: waited at least the second half.
			during++
			if s.latency() < stall/2-20*time.Millisecond {
				t.Errorf("request due %v into the stall shows latency %v", s.due-stallStart, s.latency())
			}
			if s.start-s.due > 5*time.Millisecond {
				late++
			}
		case s.due > stallStart+stall+100*time.Millisecond:
			if s.latency() > stall/2 {
				t.Errorf("request due %v after the stall shows latency %v", s.due-stallStart-stall, s.latency())
			}
		}
	}
	if during < 5 {
		t.Fatalf("only %d requests were due during the stall", during)
	}
	// With both workers stuck, the requests behind them start late, and
	// the generator says so.
	if late == 0 {
		t.Errorf("no request due during the stall is reported as sent late")
	}
}

func TestClosedLoopKeepsOneRequestPerWorker(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	send := func(ctx context.Context, op int, id string) outcome {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return outcome{}
	}
	ph := runClosed(context.Background(), "closed", 50*time.Millisecond, passOrder(3, 64, 1), send)
	if peak != clients {
		t.Errorf("peak concurrency %d, want %d", peak, clients)
	}
	if len(ph.samples) < 10 {
		t.Errorf("only %d requests in 50 ms of 1 ms requests", len(ph.samples))
	}
	seen := map[int]bool{}
	for _, s := range ph.samples {
		if seen[s.seq] {
			t.Errorf("request %d issued twice", s.seq)
		}
		seen[s.seq] = true
	}
}

func TestOrderAndScheduleArePureFunctionsOfSeed(t *testing.T) {
	if !reflect.DeepEqual(passOrder(42, 1000, 7), passOrder(42, 1000, 7)) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(passOrder(42, 1000, 7), passOrder(42, 1000, 8)) {
		t.Error("different seed, same order")
	}
	// Every pass covers every input once.
	order := passOrder(42, 420, 7)
	for pass := 0; pass < 10; pass++ {
		seen := map[int]bool{}
		for _, i := range order[42*pass : 42*(pass+1)] {
			seen[i] = true
		}
		if len(seen) != 42 {
			t.Errorf("pass %d covers %d of 42 inputs", pass, len(seen))
		}
	}
	a, b := poissonSchedule(100, time.Second, 7), poissonSchedule(100, time.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(100, time.Second, 8)) {
		t.Error("different seed, same schedule")
	}
	// Every seed plays rate x horizon arrivals over about the horizon,
	// with exponential gaps: a tenth of them shorter than 1.05 ms and a
	// tenth longer than 23 ms at 100/s.
	if len(a) != 100 {
		t.Errorf("%d arrivals in 1 s at 100/s", len(a))
	}
	if last := a[len(a)-1]; last < 900*time.Millisecond || last > 1100*time.Millisecond {
		t.Errorf("last arrival at %v", last)
	}
	short, long := 0, 0
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
		switch gap := a[i] - a[i-1]; {
		case gap < 1054*time.Microsecond:
			short++
		case gap > 23026*time.Microsecond:
			long++
		}
	}
	if short < 8 || short > 11 || long < 8 || long > 11 {
		t.Errorf("%d gaps in the shortest tenth and %d in the longest, want 10 each", short, long)
	}
}
