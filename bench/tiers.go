package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/sirius"
	"sirius/internal/telemetry"
)

// searchShards is the fan-out of the search workload.
const searchShards = 4

// tiers is the booted system under test: the real serving tiers in this
// process, talking to each other over loopback exactly as the binaries
// in cmd/ do.
type tiers struct {
	url      string // the frontend, the only address the client knows
	front    *cluster.Frontend
	pipeline *sirius.Pipeline // nil for the search topology
	server   *sirius.Server   // nil for the search topology
	shards   []*search.Index  // nil for the query topology
	synth    kb.SynthConfig
	full     *search.Index // the unsharded oracle index, set when the inputs are built
	rejected int           // drawn inputs dropped because the tiers cannot answer them correctly

	slots   []*slot
	servers []*http.Server
	served  sync.WaitGroup
	errors  errorLog
}

// errorLog collects what the tiers' HTTP servers write to their error
// log (a handler panic, a broken connection) instead of letting it
// scroll past on stderr: no client request fails when a connection dies
// after its reply, so this is the only place such a fault shows.
type errorLog struct {
	mu    sync.Mutex
	lines map[string]int // by tier
	first string
}

func (e *errorLog) record(tier string, p []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lines == nil {
		e.lines = map[string]int{}
	}
	e.lines[tier]++
	if e.first == "" {
		line, _, _ := strings.Cut(string(p), "\n")
		e.first = tier + ": " + line
	}
}

// tierLog is the io.Writer behind one server's ErrorLog; the log
// package hands it one record per Write.
type tierLog struct {
	to   *errorLog
	tier string
}

func (l tierLog) Write(p []byte) (int, error) {
	l.to.record(l.tier, p)
	return len(p), nil
}

// listen serves h, the handler of the named tier, on a fresh loopback
// port.
func (t *tiers) listen(tier string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(tierLog{&t.errors, tier}, "", 0)}
	t.servers = append(t.servers, srv)
	t.served.Add(1)
	go func() {
		defer t.served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close()
	}()
	return "http://" + ln.Addr().String(), nil
}

// mount puts a tier's handler behind a slot so the traced phase can
// wrap it.
func (t *tiers) mount(name, parent string, h http.Handler) *slot {
	s := &slot{name: name, parent: parent, h: h}
	t.slots = append(t.slots, s)
	return s
}

// trace switches every tier's span recording on (or off with nil).
func (t *tiers) trace(tr *tracer) {
	for _, s := range t.slots {
		s.tr.Store(tr)
	}
}

// bootFrontend starts a default-config frontend, as cmd/sirius-frontend
// does, and serves it.
func (t *tiers) bootFrontend() error {
	t.front = cluster.NewFrontend(cluster.DefaultFrontendConfig())
	t.front.Start()
	url, err := t.listen(spanFrontend, t.mount(spanFrontend, spanClient, t.front))
	t.url = url
	return err
}

// bootQueryTiers builds a pipeline and serves it as one sirius.Server
// behind a frontend: the topology of the four query workloads.
func bootQueryTiers(cfg sirius.Config) (*tiers, error) {
	t := &tiers{}
	p, err := sirius.New(cfg)
	if err != nil {
		return nil, err
	}
	t.pipeline = p
	t.server = sirius.NewServer(p)
	backendURL, err := t.listen(spanBackend, t.mount(spanBackend, spanFrontend, t.server))
	if err != nil {
		t.close()
		return nil, err
	}
	if err := t.bootFrontend(); err != nil {
		t.close()
		return nil, err
	}
	if _, err := t.front.AddBackend(backendURL, ""); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// bootSearchTiers builds the leaves' partitions of the synthetic corpus
// (side by side, as separate leaf processes would) and serves them
// behind a scatter-gather frontend.
func bootSearchTiers(cfg kb.SynthConfig) (*tiers, error) {
	t := &tiers{synth: cfg, shards: make([]*search.Index, searchShards)}
	var wg sync.WaitGroup
	for i := range t.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t.shards[i] = kb.BuildSynthShard(cfg, i, searchShards)
		}(i)
	}
	wg.Wait()
	if err := t.bootFrontend(); err != nil {
		t.close()
		return nil, err
	}
	for i, ix := range t.shards {
		leaf := shard.NewLeaf(ix, i, searchShards, telemetry.NewRegistry())
		mux := http.NewServeMux()
		mux.Handle("/v1/shard/search", t.mount(spanLeaf, spanFrontend, leaf))
		// The frontend admits a backend only after probing /readyz.
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		url, err := t.listen(spanLeaf, mux)
		if err != nil {
			t.close()
			return nil, err
		}
		if _, err := t.front.AddShardBackend(url, cluster.KindSearch, i, searchShards); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// close stops every tier and returns once their goroutines have ended.
func (t *tiers) close() {
	if t.front != nil {
		t.front.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range t.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
	t.served.Wait()
	if t.pipeline != nil {
		t.pipeline.Close()
	}
	// The frontend dials its backends through the default transport.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}
