package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"
)

// DrainDeadline bounds a graceful shutdown: in-flight requests get this
// long to finish before the listener is closed under them.
const DrainDeadline = 30 * time.Second

// Serve is the lifecycle every serving binary shares. It listens on
// srv.Addr and serves until ctx ends. With frontend set, reg (its URL
// derived from the listen address when empty) is registered in the
// background, retried every second until it takes, because backends and
// frontend boot in any order. When ctx ends it drains in the order that
// routes nothing to a corpse — the shutdown a WSC scheduler rolling the
// fleet expects: unready runs first (a backend's /readyz turns 503, so
// health checks stop picking it; nil skips it), then the process
// deregisters from the frontend, then Shutdown lets in-flight requests
// finish until the drain deadline, and Close forces the listener shut
// past it. Serve returns once the server has stopped; the error is a
// failure to listen or serve, never the drain itself.
func Serve(ctx context.Context, srv *http.Server, frontend string, reg Registration, unready func()) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	if reg.URL == "" {
		reg.URL = advertiseURL(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Two requests in a lifetime: no idle connection is kept to outlive Serve.
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	regCtx, stopRegistering := context.WithCancel(ctx)
	defer stopRegistering()
	var registering sync.WaitGroup
	if frontend != "" {
		registering.Add(1)
		go func() {
			defer registering.Done()
			registerUntil(regCtx, client, frontend, reg)
		}()
	}

	select {
	case err := <-errc:
		stopRegistering()
		registering.Wait()
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: draining in-flight requests (deadline %v)", reg.URL, DrainDeadline)
	if unready != nil {
		unready()
	}
	// A registration still in flight must not land after the deregister.
	stopRegistering()
	registering.Wait()
	if frontend != "" {
		if err := deregister(client, frontend, reg); err != nil {
			log.Printf("deregister: %v", err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), DrainDeadline)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v (forcing close)", err)
		_ = srv.Close()
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("%s: stopped", reg.URL)
	return nil
}

// registerUntil announces reg to the frontend, retrying every second
// until it takes or ctx ends.
func registerUntil(ctx context.Context, client *http.Client, frontend string, reg Registration) {
	for {
		err := register(client, frontend, reg)
		if err == nil {
			log.Printf("registered with frontend %s as %s (kinds=%s)", frontend, reg.URL, reg.Kinds)
			return
		}
		if ctx.Err() != nil {
			return
		}
		log.Printf("frontend registration failed (will retry): %v", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
}

// advertiseURL derives the URL peers should use to reach a listen
// address: an unspecified host becomes loopback.
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, port))
}
