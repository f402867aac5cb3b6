package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// envReply builds a reply carrying body, with header given as name,
// value pairs.
func envReply(status int, body string, header ...string) reply {
	r := reply{status: status, body: []byte(body), header: http.Header{}}
	for i := 0; i+1 < len(header); i += 2 {
		r.header.Set(header[i], header[i+1])
	}
	return r
}

const emptyQuery = `{"code":400,"reason":"empty_query","request_id":"r1","message":"provide audio"}`

func TestCheckEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    reply
		ok   bool
	}{
		{"the envelope", envReply(400, emptyQuery, "X-Request-Id", "r1"), true},
		{"not JSON", envReply(400, "bad request", "X-Request-Id", "r1"), false},
		{"other status", envReply(500, emptyQuery, "X-Request-Id", "r1"), false},
		{"other code", envReply(400, `{"code":503,"reason":"empty_query","request_id":"r1"}`, "X-Request-Id", "r1"), false},
		{"other reason", envReply(400, `{"code":400,"reason":"bad_json","request_id":"r1"}`, "X-Request-Id", "r1"), false},
		{"no request id", envReply(400, `{"code":400,"reason":"empty_query"}`), false},
		{"request id not the header's", envReply(400, emptyQuery, "X-Request-Id", "r2"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkEnvelope(tc.r, http.StatusBadRequest, "empty_query")
			if (err == nil) != tc.ok {
				t.Fatalf("checkEnvelope = %v, want ok %v", err, tc.ok)
			}
		})
	}
}

func TestCheckRelay(t *testing.T) {
	direct := envReply(400, emptyQuery, "X-Request-Id", "r1")
	for _, tc := range []struct {
		name            string
		relayed, direct reply
		ok              bool
	}{
		{"verbatim, own request id", envReply(400, strings.Replace(emptyQuery, "r1", "r9", 1), "X-Sirius-Backend", "b:1"), direct, true},
		{"no backend named", envReply(400, emptyQuery), direct, false},
		{"relayed not an envelope", envReply(400, "oops", "X-Sirius-Backend", "b:1"), direct, false},
		{"direct not an envelope", envReply(400, emptyQuery, "X-Sirius-Backend", "b:1"), envReply(400, "oops"), false},
		{"other status", envReply(502, emptyQuery, "X-Sirius-Backend", "b:1"), direct, false},
		{"other reason", envReply(400, strings.Replace(emptyQuery, "empty_query", "bad_json", 1), "X-Sirius-Backend", "b:1"), direct, false},
		{"other message", envReply(400, strings.Replace(emptyQuery, "provide audio", "try again", 1), "X-Sirius-Backend", "b:1"), direct, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkRelay(tc.relayed, tc.direct); (err == nil) != tc.ok {
				t.Fatalf("checkRelay = %v, want ok %v", err, tc.ok)
			}
		})
	}
}

func TestPositive(t *testing.T) {
	const m metrics = `# TYPE sirius_query_errors_total counter
sirius_query_errors_total{reason="timeout"} 3
sirius_query_errors_total{reason="overloaded"} 0
sirius_query_errors_total{reason="bad_json"} NaN
cluster_streams_total{outcome="ok"} 1.5
`
	for _, tc := range []struct {
		name   string
		series []string
		ok     bool
	}{
		{"positive", []string{`sirius_query_errors_total{reason="timeout"}`}, true},
		{"every one positive", []string{`sirius_query_errors_total{reason="timeout"}`, `cluster_streams_total{outcome="ok"}`}, true},
		{"zero", []string{`sirius_query_errors_total{reason="overloaded"}`}, false},
		{"not a number", []string{`sirius_query_errors_total{reason="bad_json"}`}, false},
		{"absent", []string{`sirius_query_errors_total{reason="canceled"}`}, false},
		{"a label prefix is not the series", []string{`sirius_query_errors_total{reason="time"}`}, false},
		{"one of two absent", []string{`sirius_query_errors_total{reason="timeout"}`, `cluster_streams_total{outcome="error"}`}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := m.positive(tc.series...); (err == nil) != tc.ok {
				t.Fatalf("positive = %v, want ok %v", err, tc.ok)
			}
		})
	}
}

func TestCrashed(t *testing.T) {
	for _, tc := range []struct {
		name, output string
		ok           bool
	}{
		{"clean", "pipeline ready in 1.2s; listening on 127.0.0.1:8080\n", true},
		{"panic", "panic: runtime error: index out of range [3] with length 3\n\ngoroutine 7 [running]:\n", false},
		{"handler panic", "http: panic serving 127.0.0.1:5000: boom\n", false},
		{"fatal error", "fatal error: concurrent map writes\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := crashed("backend1", tc.output); (err == nil) != tc.ok {
				t.Fatalf("crashed = %v, want ok %v", err, tc.ok)
			}
		})
	}
}

func TestEventually(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	notYet := errors.New("not yet")
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		passAfter int // calls before cond passes; 0 never passes
		wantCalls int
		wantErr   error
	}{
		{"passes at once", context.Background(), 1, 1, nil},
		{"passes on the third poll", context.Background(), 3, 3, nil},
		{"context already over", canceled, 0, 1, context.Canceled},
		{"passing beats an ended context", canceled, 1, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			err := eventually(tc.ctx, "the thing", time.Millisecond, func() error {
				calls++
				if calls == tc.passAfter {
					return nil
				}
				return notYet
			})
			if !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) {
				t.Fatalf("eventually = %v, want %v", err, tc.wantErr)
			}
			if calls != tc.wantCalls {
				t.Fatalf("cond called %d times, want %d", calls, tc.wantCalls)
			}
			if err != nil && (!strings.Contains(err.Error(), "the thing") || !strings.Contains(err.Error(), notYet.Error())) {
				t.Fatalf("error %q names neither what it waited for nor cond's last error", err)
			}
		})
	}
}

// A condition that never holds ends with the context's deadline.
func TestEventuallyExpires(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls := 0
	err := eventually(ctx, "the thing", time.Millisecond, func() error {
		calls++
		return errors.New("not yet")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("eventually = %v, want the deadline", err)
	}
	if calls < 2 {
		t.Fatalf("cond polled %d times before the deadline, want several", calls)
	}
}
