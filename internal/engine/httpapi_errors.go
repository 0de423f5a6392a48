package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"scalia/internal/cloud"
	"scalia/internal/core"
)

// APIError is the typed error payload of the v1 protocol:
// {"error": {"code": "...", "message": "..."}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// errLengthRequired marks a streaming write without a Content-Length —
// a fault only the wire form can have.
var errLengthRequired = fmt.Errorf("%w: a declared Content-Length is required", ErrInvalidArgument)

// wireErrors is the one error vocabulary of the v1 protocol: which
// status and code each sentinel is served as, and — read the other way —
// which sentinel each code means to a remote caller. The gateway encodes
// through statusFromErr, the typed client decodes through SentinelFor;
// both are lookups over this table and have no cases of their own, so a
// code the gateway can emit cannot be unknown to the client.
//
// Order matters in both directions: an error is served as the first row
// it matches (specific sentinels precede the ones they wrap), and a code
// decodes to the first row carrying it. Client mistakes are 4xx
// (malformed input 400, stale preconditions 412, infeasible rules 422);
// only genuine server trouble is 5xx.
var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{ErrJobNotFound, http.StatusNotFound, "job_not_found"},
	{ErrObjectNotFound, http.StatusNotFound, "not_found"},
	{ErrUploadNotFound, http.StatusNotFound, "upload_not_found"},
	{ErrProviderExists, http.StatusConflict, "already_exists"},
	{ErrPreconditionFailed, http.StatusPreconditionFailed, "precondition_failed"},
	{errLengthRequired, http.StatusLengthRequired, "length_required"},
	{ErrInvalidRule, http.StatusBadRequest, "invalid_rule"},
	{ErrInvalidArgument, http.StatusBadRequest, "invalid_argument"},
	{ErrRangeNotSatisfiable, http.StatusRequestedRangeNotSatisfiable, "range_not_satisfiable"},
	// A rule stored without going through the API's validation.
	{core.ErrBadLockIn, http.StatusBadRequest, "invalid_rule"},
	{core.ErrBadProbability, http.StatusBadRequest, "invalid_rule"},
	// The rule is well-formed but no feasible provider set satisfies it
	// on the current market: semantically unprocessable, not a server
	// fault.
	{core.ErrNoProviders, http.StatusUnprocessableEntity, "infeasible_placement"},
	{cloud.ErrUnknownProvider, http.StatusNotFound, "unknown_provider"},
	// The provider exists but its backend cannot take this mutation
	// (remote private resources have no failure injection, fixed
	// pricing).
	{cloud.ErrUnsupportedMutation, http.StatusUnprocessableEntity, "unsupported_mutation"},
	{cloud.ErrTooLarge, http.StatusRequestEntityTooLarge, "too_large"},
	{cloud.ErrOverCapacity, http.StatusInsufficientStorage, "over_capacity"},
	// A provider dropped between the placement decision and the chunk
	// fan-out (§III-D3's race) — transient, retryable.
	{cloud.ErrUnavailable, http.StatusServiceUnavailable, "provider_unavailable"},
	{ErrNotEnoughChunks, http.StatusServiceUnavailable, "unavailable"},
	// Stored bytes the sums condemn, beyond what the spare chunks could
	// cover: server trouble, and not the retryable kind.
	{ErrChecksum, http.StatusInternalServerError, "checksum_mismatch"},
	// The client went away mid-request; it will not read the status, but
	// logs and tests should not see a 500.
	{context.Canceled, http.StatusRequestTimeout, "request_cancelled"},
	{context.DeadlineExceeded, http.StatusRequestTimeout, "request_cancelled"},
}

// statusFromErr maps an error onto its protocol status and code;
// anything not in the table is a 500 "internal".
func statusFromErr(err error) (int, string) {
	for _, row := range wireErrors {
		if errors.Is(err, row.err) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// SentinelFor maps a wire error code back onto its sentinel; ok is false
// for a code the table does not carry.
func SentinelFor(code string) (sentinel error, ok bool) {
	for _, row := range wireErrors {
		if row.code == code {
			return row.err, true
		}
	}
	return nil, false
}

// failErr is the one writer of error responses.
func failErr(w http.ResponseWriter, err error) {
	status, code := statusFromErr(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]APIError{ //nolint:errcheck
		"error": {Code: code, Message: err.Error()},
	})
}
