package envelope

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// reasonCodes is the vocabulary with the status each reason must map to.
var reasonCodes = map[string]int{
	ReasonBadMethod:    http.StatusMethodNotAllowed,
	ReasonOverloaded:   http.StatusTooManyRequests,
	ReasonBodyTooLarge: http.StatusRequestEntityTooLarge,
	ReasonBadJSON:      http.StatusBadRequest,
	ReasonBadAudio:     http.StatusBadRequest,
	ReasonBadImage:     http.StatusBadRequest,
	ReasonBadPrecision: http.StatusBadRequest,
	ReasonEmptyQuery:   http.StatusBadRequest,
	ReasonTimeout:      http.StatusServiceUnavailable,
	ReasonCanceled:     statusClientClosed,
	ReasonPipeline:     http.StatusUnprocessableEntity,

	ReasonBadBody:        http.StatusBadRequest,
	ReasonNoBackends:     http.StatusServiceUnavailable,
	ReasonDispatch:       http.StatusServiceUnavailable,
	ReasonBackendFailure: http.StatusBadGateway,
	ReasonShardTopology:  http.StatusServiceUnavailable,
	ReasonShardFailure:   http.StatusServiceUnavailable,
}

// TestCodeForEveryReason pins the status of every reason in the
// vocabulary, and that the table above names every Reason* constant
// declared in this package, so a new reason cannot fall through to 500.
func TestCodeForEveryReason(t *testing.T) {
	for reason, want := range reasonCodes {
		if got := codeFor(reason); got != want {
			t.Errorf("CodeFor(%q) = %d, want %d", reason, got, want)
		}
	}
	if got := codeFor("no_such_reason"); got != http.StatusInternalServerError {
		t.Errorf("CodeFor(unknown) = %d, want 500", got)
	}

	f, err := parser.ParseFile(token.NewFileSet(), "envelope.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if !strings.HasPrefix(name.Name, "Reason") {
				continue
			}
			declared++
			lit := vs.Values[i].(*ast.BasicLit).Value
			if _, ok := reasonCodes[strings.Trim(lit, `"`)]; !ok {
				t.Errorf("%s = %s has no row in reasonCodes", name.Name, lit)
			}
		}
		return true
	})
	if declared != len(reasonCodes) {
		t.Errorf("envelope.go declares %d reasons, the table has %d", declared, len(reasonCodes))
	}
}

// TestWriteDerivesStatus: the status line and the body's code both come
// from the reason.
func TestWriteDerivesStatus(t *testing.T) {
	for reason, want := range reasonCodes {
		rec := httptest.NewRecorder()
		Write(rec, reason, "req-1", "msg")
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", reason, rec.Code, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", reason, ct)
		}
		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v", reason, err)
		}
		if env != (Envelope{Code: want, Reason: reason, RequestID: "req-1", Message: "msg"}) {
			t.Errorf("%s: envelope %+v", reason, env)
		}
	}
}
