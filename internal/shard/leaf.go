package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sirius/internal/search"
	"sirius/internal/telemetry"
)

// Leaf serves one shard's partition of the corpus over HTTP
// (POST /v1/shard/search). It is the network face of a leaf node in the
// paper's §3 leaf/aggregator topology.
type Leaf struct {
	Index  *search.Index
	Shard  int
	Shards int
	// Delay, when positive, stalls every request by that duration (or
	// until the client gives up) before answering — the fault-injection
	// hook clustersmoke uses to force a shard past its budget. The wait
	// always yields to request cancellation, so a stalled leaf consumes
	// no resources once the aggregator stops waiting.
	Delay time.Duration

	latency *telemetry.Histogram // sirius_shard_leaf_seconds; its _count is requests served
}

// NewLeaf wraps a shard index for serving. reg may be nil (no metrics).
func NewLeaf(ix *search.Index, shardID, shards int, reg *telemetry.Registry) *Leaf {
	l := &Leaf{Index: ix, Shard: shardID, Shards: shards}
	if reg != nil {
		l.latency = reg.NewHistogram("sirius_shard_leaf_seconds",
			"Leaf shard search latency in seconds.")
	}
	return l
}

// ServeHTTP answers a leaf search request: a JSON Request in, a binary
// frame (wire.go) out.
func (l *Leaf) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.K > MaxK {
		http.Error(w, fmt.Sprintf("bad request: k %d exceeds %d", req.K, MaxK), http.StatusBadRequest)
		return
	}
	if len(req.Terms) > MaxTerms {
		http.Error(w, fmt.Sprintf("bad request: %d terms exceed %d", len(req.Terms), MaxTerms), http.StatusBadRequest)
		return
	}
	if l.Delay > 0 {
		select {
		case <-time.After(l.Delay):
		case <-r.Context().Done():
			return
		}
	}
	resp := Exec(l.Index, req, l.Shard, l.Shards)
	if l.latency != nil {
		l.latency.Observe(time.Since(start))
	}
	buf := framePool.Get().(*[]byte)
	*buf = appendResponse((*buf)[:0], &resp)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf) // a failed write is the aggregator's failed arm
	framePool.Put(buf)
}

// framePool holds the leaves' frame buffers: a frame is written whole and
// the buffer reused, so a steady leaf allocates none.
var framePool = sync.Pool{New: func() any { return new([]byte) }}
