package serve

import "fmt"

// API error codes. They are part of the wire protocol: clients switch on
// the code, humans read the message.
const (
	// CodeBadRequest marks malformed or invalid request bodies and specs.
	CodeBadRequest = "bad_request"
	// CodeNotFound marks an unknown session id.
	CodeNotFound = "not_found"
	// CodeStepOpen rejects a step posted while the previous decision
	// still awaits its reward.
	CodeStepOpen = "step_open"
	// CodeNoOpenStep rejects a reward with no decision open (typically a
	// duplicate delivery).
	CodeNoOpenStep = "no_open_step"
	// CodeSeqMismatch rejects an out-of-order reward: its sequence
	// number does not match the open decision.
	CodeSeqMismatch = "seq_mismatch"
	// CodeInternal marks a recovered handler panic (e.g. an injected
	// chaos fault); the session's open decision survives for retry.
	CodeInternal = "internal"
	// CodeConflict rejects a PUT create whose id is taken by a session
	// with a different spec.
	CodeConflict = "conflict"
)

// ProtocolError is a deterministic rejection of a step/reward request
// that violates the session's sequencing protocol. It maps to HTTP 409.
type ProtocolError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *ProtocolError) Error() string { return e.Code + ": " + e.Msg }

// errSessionDeleted reports an operation that raced a DELETE: the caller
// resolved the session before it left the store. It carries CodeNotFound
// because, from the client's view, the session no longer exists.
func errSessionDeleted(id string) *ProtocolError {
	return &ProtocolError{Code: CodeNotFound, Msg: "session " + id + " was deleted"}
}

// CheckpointError reports an unreadable or structurally invalid
// checkpoint file. Decoding is total: malformed JSON, truncated files,
// and inconsistent session records produce this error, never a panic.
type CheckpointError struct {
	Reason string
	// Offset is the byte offset the decode failed at, when known (JSON
	// syntax and type errors carry one; structural validation failures
	// leave it 0). A truncated or bit-flipped checkpoint names the
	// damage site so an operator can diff it against a good copy.
	Offset int64
}

// Error implements error.
func (e *CheckpointError) Error() string {
	if e.Offset > 0 {
		return fmt.Sprintf("serve: invalid checkpoint: %s (at byte offset %d)", e.Reason, e.Offset)
	}
	return "serve: invalid checkpoint: " + e.Reason
}
