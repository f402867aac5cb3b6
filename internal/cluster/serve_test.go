package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sirius/internal/telemetry"
)

// recv reads one value from c, failing the test rather than hanging it.
func recv[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// Drain loses no request: with a request held open on a channel,
// cancelling Serve's context turns /readyz 503 before Shutdown starts,
// deregisters from the frontend, lets the held request finish with 200,
// and returns with no goroutine left behind.
func TestServeDrainLosesNoRequest(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprintln(w, "done")
	})
	telemetry.Mount(mux, telemetry.Ops{
		Metrics: telemetry.NewRegistry(),
		Ready: func() error {
			if !ready.Load() {
				return errors.New("draining")
			}
			return nil
		},
	})

	// The fake frontend learns the backend's URL from /register. Serve
	// deregisters before it calls Shutdown, so on /deregister the
	// backend's listener is still up and its /readyz must already be 503.
	registered := make(chan Registration, 1)
	readyzAtDeregister := make(chan int, 1)
	client := &http.Client{}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reg Registration
		if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/register":
			registered <- reg
		case "/deregister":
			status := 0
			if resp, err := client.Get(reg.URL + "/readyz"); err == nil {
				resp.Body.Close()
				status = resp.StatusCode
			}
			readyzAtDeregister <- status
		}
	}))
	defer front.Close()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: mux}
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, srv, front.URL, Registration{Kinds: kindQA}, func() { ready.Store(false) })
	}()
	reg := recv(t, registered, "registration")

	held := make(chan int, 1)
	go func() {
		resp, err := client.Get(reg.URL + "/hold")
		if err != nil {
			held <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	recv(t, entered, "the held request")

	cancel()
	if got := recv(t, readyzAtDeregister, "deregistration"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d when the frontend was told to deregister, want 503 before Shutdown", got)
	}
	close(release)
	if got := recv(t, held, "the held reply"); got != http.StatusOK {
		t.Fatalf("held request got %d through the drain, want 200", got)
	}
	if err := recv(t, served, "Serve to return"); err != nil {
		t.Fatal(err)
	}

	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Serve returned, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
