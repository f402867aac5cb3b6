// Package envelope defines the structured error body every Sirius HTTP
// surface returns — /v1/query, /v1/search, and the /v1/stream event
// stream — so the {code, reason, request_id} shape, the stable reason
// vocabulary, and the reason→status mapping are declared once instead
// of per handler. The reasons double as the metric labels on
// sirius_query_errors_total and friends, and as the terminal-event
// reasons on a stream, so a client sees one error vocabulary regardless
// of tier or transport.
package envelope

import (
	"encoding/json"
	"net/http"
)

// Stable machine-readable failure reasons. Server-originated reasons
// come first, then frontend/aggregator-originated ones; both tiers
// share the vocabulary so a relayed envelope needs no translation.
const (
	ReasonBadMethod    = "bad_method"
	ReasonOverloaded   = "overloaded"
	ReasonBodyTooLarge = "body_too_large"
	ReasonBadJSON      = "bad_json"
	ReasonBadAudio     = "bad_audio"
	ReasonBadImage     = "bad_image"
	ReasonBadPrecision = "bad_precision"
	ReasonEmptyQuery   = "empty_query"
	ReasonTimeout      = "timeout"
	ReasonCanceled     = "canceled"
	ReasonPipeline     = "pipeline"

	ReasonBadBody        = "bad_body"
	ReasonNoBackends     = "no_backends"
	ReasonDispatch       = "dispatch"
	ReasonBackendFailure = "backend_failure"
	ReasonShardTopology  = "shard_topology"
	ReasonShardFailure   = "shard_failure"
)

// statusClientClosed is the nonstandard 499 (client closed request)
// used for canceled queries, following the nginx convention.
const statusClientClosed = 499

// Envelope is the structured error body: a stable machine-readable
// reason (the same strings the error metrics use as labels), the HTTP
// status code, and the request id so a client report can be joined
// against /debug/traces on either tier.
type Envelope struct {
	Code      int    `json:"code"`
	Reason    string `json:"reason"`
	RequestID string `json:"request_id"`
	Message   string `json:"message,omitempty"`
}

// New builds an envelope with the canonical status code for reason.
func New(reason, requestID, msg string) Envelope {
	return Envelope{Code: codeFor(reason), Reason: reason, RequestID: requestID, Message: msg}
}

// codeFor returns the canonical HTTP status for a failure reason.
func codeFor(reason string) int {
	switch reason {
	case ReasonBadMethod:
		return http.StatusMethodNotAllowed
	case ReasonOverloaded:
		return http.StatusTooManyRequests
	case ReasonBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case ReasonBadJSON, ReasonBadAudio, ReasonBadImage, ReasonBadPrecision, ReasonEmptyQuery, ReasonBadBody:
		return http.StatusBadRequest
	case ReasonTimeout, ReasonNoBackends, ReasonDispatch, ReasonShardTopology, ReasonShardFailure:
		return http.StatusServiceUnavailable
	case ReasonCanceled:
		return statusClientClosed
	case ReasonPipeline:
		return http.StatusUnprocessableEntity
	case ReasonBackendFailure:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// Write sends a JSON error envelope with the canonical status for reason,
// so a handler names what went wrong and the status follows from it.
func Write(w http.ResponseWriter, reason, requestID, msg string) {
	env := New(reason, requestID, msg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(env.Code)
	_ = json.NewEncoder(w).Encode(env)
}
