package service

import (
	"errors"
	"io/fs"
	"net/http"
	"os"

	"repro/internal/release"
	"repro/internal/stream"
)

// The uniform error model of the wire API: every error response is an
// RFC 7807 application/problem+json document carrying a stable
// machine-readable code. Clients branch on Code, not on error-string
// substrings; the human-readable Detail may change between releases,
// the codes may not.

// problemContentType is the RFC 7807 media type.
const problemContentType = "application/problem+json"

// Problem codes. Stable wire contract — append, never rename.
const (
	// CodeInvalidRequest: the request body or parameters failed
	// validation (malformed JSON, unknown fields, bad shapes, bad
	// budgets, out-of-range query parameters).
	CodeInvalidRequest = "invalid_request"
	// CodeSessionNotFound: the {name} path names no live session.
	CodeSessionNotFound = "session_not_found"
	// CodeSessionExists: create collided with a live session name.
	CodeSessionExists = "session_exists"
	// CodeCapacityExhausted: the process-wide population ceiling is
	// reached; retry after sessions are deleted.
	CodeCapacityExhausted = "capacity_exhausted"
	// CodeBudgetExhausted: the attached release plan has no budget left
	// (finite horizon exceeded) — continuing requires a new plan or
	// explicit budgets.
	CodeBudgetExhausted = "budget_exhausted"
	// CodeInvalidState: the operation is legal but not in the session's
	// current state (no release plan attached, restore-state mismatch).
	CodeInvalidState = "invalid_state"
	// CodeSnapshotUnavailable: a durable snapshot was requested from an
	// ephemeral (no -state-dir) process.
	CodeSnapshotUnavailable = "snapshot_unavailable"
	// CodeUnsupportedFormat: the ?format= value is not offered; the
	// problem's "supported" member lists the ones that are.
	CodeUnsupportedFormat = "unsupported_format"
	// CodePayloadTooLarge: the request body exceeded the byte ceiling.
	CodePayloadTooLarge = "payload_too_large"
	// CodeIdempotencyConflict: an Idempotency-Key was reused with a
	// different request body.
	CodeIdempotencyConflict = "idempotency_conflict"
	// CodeModelNotFound: a session config referenced a named bundle
	// model that the active bundle revision does not carry (or no bundle
	// is active). Retry after the right bundle activates.
	CodeModelNotFound = "model_not_found"
	// CodeWrongShard: this process no longer owns the session — it was
	// migrated to another shard. The problem's "location" member carries
	// the new owner's base URL; re-route and retry (the refusing shard
	// applied nothing, so even non-idempotent requests are safe to
	// resend).
	CodeWrongShard = "wrong_shard"
	// CodeShardUnavailable: the router could not reach the shard owning
	// the session. Retry after the shard recovers or is replaced.
	CodeShardUnavailable = "shard_unavailable"
	// CodeMigrateFailed: a migrate request could not complete because the
	// target shard refused or was unreachable; the session is untouched
	// on its current owner.
	CodeMigrateFailed = "migrate_failed"
	// CodeInternal: the service failed; nothing was wrong with the
	// request.
	CodeInternal = "internal"
)

// Problem is the error response body. Type stays "about:blank" (the
// RFC's registered default) with Title carrying the code's summary;
// Code is the stable machine contract.
type Problem struct {
	Type      string   `json:"type"`
	Title     string   `json:"title"`
	Status    int      `json:"status"`
	Code      string   `json:"code"`
	Detail    string   `json:"detail,omitempty"`
	Supported []string `json:"supported,omitempty"`
	// Location carries the new owner's base URL on wrong_shard problems.
	Location string `json:"location,omitempty"`
}

// problemTitles maps codes to their RFC 7807 titles.
var problemTitles = map[string]string{
	CodeInvalidRequest:      "invalid request",
	CodeSessionNotFound:     "session not found",
	CodeSessionExists:       "session already exists",
	CodeCapacityExhausted:   "capacity exhausted",
	CodeBudgetExhausted:     "privacy budget exhausted",
	CodeInvalidState:        "invalid session state",
	CodeSnapshotUnavailable: "snapshot unavailable",
	CodeUnsupportedFormat:   "unsupported format",
	CodePayloadTooLarge:     "payload too large",
	CodeIdempotencyConflict: "idempotency key conflict",
	CodeModelNotFound:       "bundle model not found",
	CodeWrongShard:          "session owned by another shard",
	CodeShardUnavailable:    "shard unavailable",
	CodeMigrateFailed:       "migration failed",
	CodeInternal:            "internal error",
}

// WrongShardError reports that a session migrated away from this process.
// Location is the new owner's base URL when known.
type WrongShardError struct {
	Name     string
	Location string
}

func (e *WrongShardError) Error() string {
	if e.Location == "" {
		return "service: session " + e.Name + " has migrated to another shard"
	}
	return "service: session " + e.Name + " has migrated to " + e.Location
}

// ErrMigrateFailed tags a migrate whose target shard refused or was
// unreachable; the source session is untouched.
var ErrMigrateFailed = errors.New("service: migration failed")

// ErrModelNotFound tags a session config referencing a bundle model
// the active revision does not carry.
var ErrModelNotFound = errors.New("service: bundle model not found")

// errIdemConflict tags idempotency-key reuse with a different body.
var errIdemConflict = errors.New("service: idempotency key reused with a different request body")

// classify maps an error to its HTTP status and problem code — the
// single source of truth for every handler.
func classify(err error) (status int, code string) {
	var tooBig *http.MaxBytesError
	var wrongShard *WrongShardError
	var pathErr *fs.PathError
	var linkErr *os.LinkError
	switch {
	case errors.As(err, &wrongShard):
		// 421 Misdirected Request: the session lives on another shard.
		return http.StatusMisdirectedRequest, CodeWrongShard
	case errors.Is(err, ErrMigrateFailed):
		return http.StatusBadGateway, CodeMigrateFailed
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, CodeSessionNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict, CodeSessionExists
	case errors.Is(err, ErrCapacity):
		return http.StatusServiceUnavailable, CodeCapacityExhausted
	case errors.Is(err, release.ErrHorizonExceeded):
		return http.StatusConflict, CodeBudgetExhausted
	case errors.Is(err, stream.ErrNoPlan):
		return http.StatusConflict, CodeInvalidState
	case errors.Is(err, ErrNoStore):
		return http.StatusConflict, CodeSnapshotUnavailable
	case errors.Is(err, errIdemConflict):
		return http.StatusUnprocessableEntity, CodeIdempotencyConflict
	case errors.Is(err, ErrModelNotFound):
		// 409, not 404: the request names no missing resource path — it
		// conflicts with the server's current bundle state, and the same
		// request can succeed once the right revision activates.
		return http.StatusConflict, CodeModelNotFound
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, CodePayloadTooLarge
	case errors.Is(err, stream.ErrBadServerState):
		return http.StatusUnprocessableEntity, CodeInvalidState
	case errors.As(err, &pathErr), errors.As(err, &linkErr):
		// The state dir failed (the file operations of internal/persist
		// return these); nothing was wrong with the request.
		return http.StatusInternalServerError, CodeInternal
	default:
		return http.StatusBadRequest, CodeInvalidRequest
	}
}

// newProblem builds a problem body for one code.
func newProblem(status int, code, detail string) Problem {
	return Problem{
		Type:   "about:blank",
		Title:  problemTitles[code],
		Status: status,
		Code:   code,
		Detail: detail,
	}
}

// NewProblem builds a problem body for one code; the cluster router uses
// it to answer with the same wire shapes the shards produce.
func NewProblem(status int, code, detail string) Problem {
	return newProblem(status, code, detail)
}

// WriteProblem emits one problem+json response (exported for the router).
func WriteProblem(w http.ResponseWriter, p Problem) {
	writeProblem(w, p)
}

// writeProblem emits one problem+json response.
func writeProblem(w http.ResponseWriter, p Problem) {
	w.Header().Set("Content-Type", problemContentType)
	writeBody(w, p.Status, p)
}

// writeError maps an error to a problem response with the status the
// classifier picks.
func writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	p := newProblem(status, code, err.Error())
	var wrongShard *WrongShardError
	if errors.As(err, &wrongShard) {
		p.Location = wrongShard.Location
	}
	writeProblem(w, p)
}

// writeErrorStatus is writeError with the handler overriding the
// status (e.g. a read endpoint reporting a server-side failure as 500
// even though the underlying error would classify as a bad request).
func writeErrorStatus(w http.ResponseWriter, status int, err error) {
	_, code := classify(err)
	if status == http.StatusInternalServerError {
		code = CodeInternal
	}
	writeProblem(w, newProblem(status, code, err.Error()))
}
