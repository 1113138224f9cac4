// Package wire defines the SyD wire protocol: the frame format and the
// request/response message types exchanged between SyD kernel modules
// over any transport.
//
// The paper's prototype used "TCP Sockets for small foot-print and
// maximum flexibility" (§3.1). We keep the same spirit: a frame is its
// body's length as a uvarint followed by the body in one binary format
// (codecv3.go, format v4), whose first byte is its version. A JSON body
// codec is kept only as the reference that tests and the benchmark's
// wire probe compare the binary one against.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"unsafe"
)

// MaxFrameSize bounds a single frame to keep a malicious or corrupted
// peer from forcing unbounded allocation. 16 MiB is far beyond any SyD
// message.
const MaxFrameSize = 16 << 20

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrShortFrame    = errors.New("wire: short frame")
)

// Kind discriminates top-level messages.
type Kind string

// Message kinds.
const (
	KindRequest  Kind = "request"
	KindResponse Kind = "response"
)

// Envelope is the single top-level frame payload. Exactly one of
// Request or Response is set, according to Kind.
type Envelope struct {
	Kind     Kind      `json:"kind"`
	Request  *Request  `json:"request,omitempty"`
	Response *Response `json:"response,omitempty"`
}

// Request is a remote method invocation on a published SyD service.
type Request struct {
	// ID correlates the response on a multiplexed connection.
	ID uint64 `json:"id"`
	// Service is the published SyD object name (e.g. "cal.phil").
	Service string `json:"service"`
	// Method is the method name registered with the listener.
	Method string `json:"method"`
	// Args carries the named arguments.
	Args Args `json:"args,omitempty"`
	// Caller identifies the invoking SyD user (may be empty for
	// anonymous infrastructure calls such as directory lookups).
	Caller string `json:"caller,omitempty"`
	// Credential is the TEA-sealed userid:password blob (§5.4),
	// hex-encoded. Empty when the target service does not require
	// authentication.
	Credential string `json:"credential,omitempty"`
	// DeadlineMs is the caller's remaining deadline budget in whole
	// milliseconds at send time, 0 for none (SetDeadline, Deadline). A
	// server that was handed no context deadline (real TCP) re-arms one
	// from it.
	DeadlineMs uint64 `json:"deadline_ms,omitempty"`
	// Meta carries request metadata (the trace context) end to end.
	// It is nil unless the caller traces.
	Meta Metadata `json:"meta,omitempty"`
}

// Response answers a Request. An OK one carries its Result, a refused
// one its Error, Code and Reason; a frame carries nothing else. A
// caller correlates a response on ID.
type Response struct {
	ID     uint64  `json:"id"`
	OK     bool    `json:"ok"`
	Error  string  `json:"error,omitempty"`
	Code   ErrCode `json:"code,omitempty"`
	Reason Reason  `json:"reason,omitempty"`
	Result Value   `json:"result"`
}

// ErrCode classifies remote failures so callers can make retry /
// failover decisions without string matching.
type ErrCode string

// Error codes.
const (
	CodeOK          ErrCode = ""
	CodeNoService   ErrCode = "no-service"  // unknown service name
	CodeNoMethod    ErrCode = "no-method"   // unknown method on service
	CodeBadArgs     ErrCode = "bad-args"    // argument decode/validation failed
	CodeAuth        ErrCode = "auth"        // authentication rejected
	CodeConflict    ErrCode = "conflict"    // negotiation/lock conflict
	CodeUnavailable ErrCode = "unavailable" // device down / unreachable
	CodeInternal    ErrCode = "internal"    // handler error
	CodeInDoubt     ErrCode = "in-doubt"    // commit phase diverged; recovery sweeper is resolving
)

// Reason refines an ErrCode: why a request was refused, one of the closed
// set below or, for an error that carries none, its ErrCode's name
// (ReasonOf). DESIGN.md §6 lists who raises each and what follows it.
type Reason string

const (
	ReasonSlotMeeting      Reason = "slot-meeting"      // the slot is held by another meeting
	ReasonSlotPersonal     Reason = "slot-personal"     // the slot is held by a personal appointment
	ReasonLockHeld         Reason = "lock-held"         // another negotiation or step has the entity marked
	ReasonDecidedAbort     Reason = "decided-abort"     // the negotiation was already aborted here
	ReasonLinkExists       Reason = "link-exists"       // a link row is already stored under the id
	ReasonNoCommonSlot     Reason = "no-common-slot"    // no slot in the window is free for everyone needed
	ReasonMeetingCancelled Reason = "meeting-cancelled" // the meeting is cancelled
	ReasonVoteDeclined     Reason = "vote-declined"     // the meeting has no use for the offered slot
	ReasonNotAllowed       Reason = "not-allowed"       // the meeting's rules forbid the change
	ReasonLeaseHeld        Reason = "lease-held"        // another holder has the lease
	ReasonConstraint       Reason = "constraint"        // the constraint failed with no refused mark to blame
	ReasonSkipped          Reason = "skipped"           // an And mark not sent after an earlier one failed
	ReasonLocalMode        Reason = "local-mode"        // the device is offline; the call never left it
)

// reasons lists every Reason constant, for the decoder.
var reasons = [...]Reason{ReasonSlotMeeting, ReasonSlotPersonal, ReasonLockHeld, ReasonDecidedAbort,
	ReasonLinkExists, ReasonNoCommonSlot, ReasonMeetingCancelled, ReasonVoteDeclined, ReasonNotAllowed,
	ReasonLeaseHeld, ReasonConstraint, ReasonSkipped, ReasonLocalMode}

// RemoteError is the error of a non-OK Response, or of a refusal raised
// locally (Refuse), whose Service and Method are empty.
type RemoteError struct {
	Code    ErrCode
	Reason  Reason
	Service string
	Method  string
	Msg     string
}

// Refuse is the CodeConflict error for reason, its message formatted.
func Refuse(reason Reason, format string, args ...any) *RemoteError {
	return &RemoteError{Code: CodeConflict, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// Error is "syd: remote S.M: msg (code: reason)", less what is empty.
func (e *RemoteError) Error() string {
	where := ""
	if e.Service != "" || e.Method != "" {
		where = "remote " + e.Service + "." + e.Method + ": "
	}
	code := string(e.Code)
	if e.Reason != "" {
		code += ": " + string(e.Reason)
	}
	return "syd: " + where + e.Msg + " (" + code + ")"
}

// Is allows errors.Is matching on code-only sentinel values.
func (e *RemoteError) Is(target error) bool {
	t, ok := target.(*RemoteError)
	if !ok {
		return false
	}
	return t.Code == e.Code && (t.Service == "" || t.Service == e.Service)
}

// CodeOf extracts the ErrCode from err if it wraps a RemoteError, and
// CodeInternal otherwise (nil maps to CodeOK).
func CodeOf(err error) ErrCode {
	if err == nil {
		return CodeOK
	}
	if re, ok := as[*RemoteError](err); ok {
		return re.Code
	}
	return CodeInternal
}

// ReasonOf is the Reason of the RemoteError in err's chain, else the name
// of err's ErrCode: its Code method's (links.InDoubtError), or CodeOf's.
func ReasonOf(err error) Reason {
	if re, ok := as[*RemoteError](err); ok && re.Reason != "" {
		return re.Reason
	}
	if coded, ok := as[interface{ Code() ErrCode }](err); ok {
		return Reason(coded.Code())
	}
	return Reason(CodeOf(err))
}

// as is errors.As(err, &target) for a target of type T, which it finds
// by walking the Unwrap chain with type assertions: errors.As moves its
// target to the heap, and CodeOf and ReasonOf read every failed call's
// error. A node that unwraps to several errors (errors.Join, a double
// %w) or has an As method is handed to errors.As.
func as[T any](err error) (T, bool) {
	for err != nil {
		if t, ok := err.(T); ok {
			return t, true
		}
		switch x := err.(type) {
		case interface{ As(any) bool }, interface{ Unwrap() []error }:
			var t T
			ok := errors.As(err, &t)
			return t, ok
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			err = nil
		}
	}
	var zero T
	return zero, false
}

// Marshal is the result value of a handler's v: a bool, a string, a
// []uint64 (GetFreeSlots' words) or an Args is its typed value and nil
// the empty one, which the frame carries as the argument encoding
// carries them; anything else rides as a Raw value, its json.Marshal
// text.
func Marshal(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Value{}, nil
	case bool:
		return Bool("", x).Val, nil
	case string:
		return Value{kind: kindString, s: x}, nil
	case []uint64:
		return Value{kind: kindWords, ws: x}, nil
	case Args:
		return Value{kind: kindArgs, sub: x}, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return Value{}, fmt.Errorf("wire: marshal result: %w", err)
	}
	// b is json.Marshal's own copy, never written again: the value's
	// text without a second copy.
	return Value{kind: kindJSON, s: unsafe.String(unsafe.SliceData(b), len(b))}, nil
}

// Unmarshal decodes a Response result into out. A *Value takes any
// result as it is, a *bool or *string the typed value of its kind, and
// otherwise json.Unmarshal reads a Raw value's text, or the text a typed
// one renders as. A result string is the frame's, shared with nothing
// written: a transport decodes each response for its call alone.
func Unmarshal(v Value, out any) error {
	switch o := out.(type) {
	case nil:
		return nil
	case *Value:
		*o = v
		return nil
	case *bool:
		if v.kind == kindBool {
			*o = v.n != 0
			return nil
		}
	case *string:
		if v.kind == kindString {
			*o = v.s
			return nil
		}
	}
	switch v.kind {
	case kindNil:
		return nil
	case kindJSON: // json.Unmarshal writes nothing into its input and copies what it keeps
		return json.Unmarshal(unsafe.Slice(unsafe.StringData(v.s), len(v.s)), out)
	}
	b, err := v.appendJSON(nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
