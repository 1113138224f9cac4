package wire

import "time"

// Metadata is the request-metadata map carried end-to-end on a Request
// and Response. It is the envelope-level home for cross-cutting keys
// (the trace context) so that no layer has to invent a side channel.
// Identity and the deadline hint are dedicated Request fields.
type Metadata map[string]string

// Get returns the value at key, or "" (nil-safe).
func (m Metadata) Get(key string) string {
	if m == nil {
		return ""
	}
	return m[key]
}

// MaxDeadline caps the deadline hint a request can carry: a hint above
// it reads as MaxDeadline, so a peer's number can neither overflow a
// Duration nor arm a timer for centuries.
const MaxDeadline = 24 * time.Hour

// SetDeadline stores d, at most MaxDeadline, as the request's deadline
// hint, rounded up to a whole millisecond so a short positive budget
// never encodes as 0; a d of 0 or less clears it.
func (r *Request) SetDeadline(d time.Duration) {
	r.DeadlineMs = uint64((min(max(d, 0), MaxDeadline) + time.Millisecond - 1) / time.Millisecond)
}

// Deadline returns the request's deadline hint, 0 when it has none and
// at most MaxDeadline.
func (r *Request) Deadline() time.Duration {
	return time.Duration(min(r.DeadlineMs, uint64(MaxDeadline/time.Millisecond))) * time.Millisecond
}
