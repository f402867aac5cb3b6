package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sirius/internal/envelope"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/telemetry"
)

// This file is the aggregator of the sharded search tier — the paper's
// §3 leaf/aggregator web-search topology made concrete. POST /v1/search
// fans the query to every corpus shard through the same per-attempt
// machinery as /v1/query dispatch (breakers, retries, hedging), each arm
// under its own slice of the shard budget. Shards that answer in time
// are merged into the exact global ranking; shards that don't are
// dropped and the response is tagged partial — returning a slightly
// narrower ranking on time beats returning a complete one late, the
// tail-tolerance trade the paper's WSC argument turns on.

// ShardBudgetHeader overrides the fixed per-shard deadline (shardBudget)
// for one request (milliseconds), looser or tighter.
const ShardBudgetHeader = "X-Sirius-Shard-Budget-Ms"

// shardTopology groups the ready search backends by partition: the
// declared shard count and which shard indexes have at least one ready
// replica. An inconsistent pool (leaves disagreeing on N) is an error —
// merging across two different partitionings would double- or
// zero-count documents.
func shardTopology(ready []*Backend) (shards int, present map[int]bool, err error) {
	present = map[int]bool{}
	for _, b := range ready {
		si, sn := b.shardSpec()
		if sn <= 0 {
			return 0, nil, fmt.Errorf("backend %s registered kind search without a shard assignment", b.ID)
		}
		if shards == 0 {
			shards = sn
		} else if sn != shards {
			return 0, nil, fmt.Errorf("inconsistent shard topology: %s declares %d shards, others %d", b.ID, sn, shards)
		}
		present[si] = true
	}
	return shards, present, nil
}

// handleSearch serves the aggregator API: scatter to all shards, merge
// under global statistics, best-effort partial results on shard budget
// misses.
func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	reqID, ok := f.begin(w, r)
	if !ok {
		return
	}
	start := time.Now()
	var req shard.SearchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		f.fail(w, envelope.ReasonBadBody, reqID, "decoding search request: "+err.Error())
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > shard.MaxK {
		f.fail(w, envelope.ReasonBadBody, reqID, fmt.Sprintf("k %d exceeds %d", req.K, shard.MaxK))
		return
	}
	terms := search.QueryTerms(req.Query)
	if len(terms) > shard.MaxTerms {
		f.fail(w, envelope.ReasonBadBody, reqID, fmt.Sprintf("%d query terms exceed %d", len(terms), shard.MaxTerms))
		return
	}

	ready := f.reg.readyFor(KindSearch)
	if len(ready) == 0 {
		f.shardSearches.With("error").Inc()
		f.fail(w, envelope.ReasonNoBackends, reqID, "no search shards registered")
		return
	}
	shards, present, err := shardTopology(ready)
	if err != nil {
		f.shardSearches.With("error").Inc()
		f.fail(w, envelope.ReasonShardTopology, reqID, err.Error())
		return
	}

	budget := shardBudget
	if ms, perr := strconv.Atoi(r.Header.Get(ShardBudgetHeader)); perr == nil && ms > 0 {
		budget = time.Duration(ms) * time.Millisecond
	}

	// The caller's k: each leaf overfetches for itself.
	leafBody, _ := json.Marshal(shard.Request{Terms: terms, K: req.K})

	ctx := telemetry.ContextWithRequestID(r.Context(), reqID)
	ctx, tr := telemetry.StartTrace(ctx, "frontend search")

	// One slot per partition, written by its own arm, so the gather
	// needs no lock and failed comes out in shard order.
	type arm struct {
		resp shard.Response
		ok   bool
	}
	arms := make([]arm, shards)
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		if !present[si] {
			// No ready replica for this partition: it fails without an
			// attempt and the merge proceeds best-effort.
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, budget)
			defer cancel()
			spCtx, sp := telemetry.StartSpan(sctx, fmt.Sprintf("shard %d/%d", si, shards))
			defer sp.End()
			res, derr := f.dispatch(spCtx, KindSearch, "/v1/shard/search", leafBody, reqID, "", func(b *Backend) bool {
				bi, bn := b.shardSpec()
				return bn == shards && bi == si
			})
			if derr == nil && res.ok() && res.status == http.StatusOK {
				// A frame that does not decode (a leaf of another
				// version, a cut body) fails the arm like a dead shard.
				resp, err := shard.DecodeResponse(res.body)
				arms[si] = arm{resp: resp, ok: err == nil}
			}
		}(si)
	}
	wg.Wait()
	tr.Finish()
	f.traces.Add(tr)

	var resps []shard.Response
	var failed []int
	for si, a := range arms {
		if a.ok {
			resps = append(resps, a.resp)
		} else {
			failed = append(failed, si)
		}
	}
	if len(resps) == 0 {
		f.shardSearches.With("error").Inc()
		f.fail(w, envelope.ReasonShardFailure, reqID, fmt.Sprintf("all %d shards failed or missed the %s budget", shards, budget))
		return
	}

	resp := shard.SearchResponse{
		Results:      shard.Merge(terms, resps, req.K),
		Partial:      len(failed) > 0,
		Shards:       shards,
		FailedShards: failed,
	}
	if resp.Partial {
		f.shardSearches.With("partial").Inc()
	} else {
		f.shardSearches.With("full").Inc()
	}
	f.queries.With(KindSearch).Inc()
	f.queryLat.With(KindSearch).ObserveTrace(time.Since(start), reqID)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
