package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"time"

	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/sirius"
)

// client is the load generator's HTTP side: one connection per worker to
// the frontend and nothing else.
type client struct {
	base string
	hc   *http.Client
	ops  []op
	tr   *tracer // non-nil during the traced phase: record client spans
}

func newClient(base string, ops []op) *client {
	return &client{base: base, ops: ops, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func failure(why string) outcome { return outcome{failed: true, failure: why} }

func reqID(phase string, i int) string { return fmt.Sprintf("%s-%d", phase, i) }

// send issues input i, reads the whole reply and checks it against the
// oracle. It is the sendFunc of every phase.
func (c *client) send(ctx context.Context, i int, id string) outcome {
	o := &c.ops[i]
	var start int64
	if c.tr != nil {
		start = c.tr.now()
	}
	out := c.post(ctx, o, id)
	if c.tr != nil {
		c.tr.add(span{Req: id, Name: spanClient, Start: start, End: c.tr.now(), BytesOut: int64(o.reqBytes)})
	}
	return out
}

func (c *client) post(ctx context.Context, o *op, id string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return failure(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	if o.path == "/v1/stream" {
		req.Header.Set("Content-Type", "application/x-ndjson")
		return c.session(req, o)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return failure(err.Error())
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failure(err.Error())
	}
	if resp.StatusCode != http.StatusOK {
		return failure(fmt.Sprintf("%s: %.200s", resp.Status, body))
	}
	if o.path == "/v1/search" {
		var got shard.SearchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return failure(err.Error())
		}
		diff := diffHits(o.wantHits, got.Results)
		return outcome{mismatch: diff, correct: diff == "", partial: got.Partial}
	}
	var got sirius.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return failure(err.Error())
	}
	return outcome{mismatch: diffResponse(o.want, got), correct: answers(o.query, got), lat: got.Latency}
}

// session runs one /v1/stream session: the chunk lines go out back to
// back while the events are read as they come; the session is over when
// the final event has arrived and the reply has ended.
func (c *client) session(req *http.Request, o *op) outcome {
	begin := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return failure(err.Error())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return failure(fmt.Sprintf("%s: %s", resp.Status, body))
	}
	var out outcome
	var last sirius.StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev sirius.StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return failure(err.Error())
		}
		if ev.Type == "partial" && out.firstPartial == 0 {
			out.firstPartial = time.Since(begin)
		}
		last = ev
	}
	if last.Type != "final" {
		return failure(fmt.Sprintf("session ended with a %q event: %s %s", last.Type, last.Reason, last.Message))
	}
	if last.Text != o.want.Transcript {
		out.mismatch = fmt.Sprintf("streamed final %q, one-shot transcript %q", last.Text, o.want.Transcript)
	}
	out.correct = last.Text == o.query.Text
	return out
}

// diffResponse compares a reply with the in-process answer to the same
// input, timings aside.
func diffResponse(want, got sirius.Response) string {
	want.Latency, got.Latency = sirius.Latency{}, sirius.Latency{}
	if reflect.DeepEqual(want, got) {
		return ""
	}
	w, _ := json.Marshal(want)
	g, _ := json.Marshal(got)
	return fmt.Sprintf("reply %s, oracle %s", g, w)
}

// answers scores a reply against the input set's expected result, by
// the rules of the functional evaluation in internal/report.
func answers(q kb.Query, r sirius.Response) bool {
	switch q.Class {
	case kb.VoiceCommand:
		return r.Kind == sirius.KindAction && r.Action == q.Want
	case kb.VoiceImageQuery:
		return r.MatchedImage == q.ImageID && r.Answer == q.Want
	default:
		return r.Answer == q.Want
	}
}

// diffHits compares the scatter-gather ranking with the unsharded
// index: same documents, same order, scores within 1e-9.
func diffHits(want []search.Result, got []shard.SearchHit) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d hits, unsharded index has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Doc.ID != g.ID || w.Doc.Title != g.Title || w.Doc.Body != g.Body || math.Abs(w.Score-g.Score) > 1e-9 {
			return fmt.Sprintf("hit %d is doc %d score %.12g, unsharded index has doc %d score %.12g", i, g.ID, g.Score, w.Doc.ID, w.Score)
		}
	}
	return ""
}
