package wire

import (
	"strconv"
	"time"
)

// Metadata is the typed request-metadata map carried end-to-end on
// every Request and Response. It is the envelope-level home for the
// cross-cutting concerns the interceptor pipeline manages (the deadline
// hint, trace context, whatever key an interceptor sets) so that no
// layer has to invent a side channel.
//
// Caller and Credential remain dedicated Request fields on the wire
// (they predate Metadata and auth depends on them); FullMeta merges
// them back into one view on the receiving side.
type Metadata map[string]string

// Well-known metadata keys.
const (
	// MetaCaller is the invoking SyD user id.
	MetaCaller = "caller"
	// MetaCredential is the TEA-sealed credential blob (§5.4).
	MetaCredential = "credential"
	// MetaDeadline is the caller's remaining deadline budget in
	// milliseconds at send time; servers without context propagation
	// (real TCP) re-arm a local deadline from it.
	MetaDeadline = "deadline-ms"
)

// Get returns the value at key, or "" (nil-safe).
func (m Metadata) Get(key string) string {
	if m == nil {
		return ""
	}
	return m[key]
}

// Clone returns a mutable copy of m (never nil).
func (m Metadata) Clone() Metadata {
	out := make(Metadata, len(m)+4)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Deadline returns the deadline hint as a duration, 0 when absent.
func (m Metadata) Deadline() time.Duration {
	s := m.Get(MetaDeadline)
	if s == "" {
		return 0 // fast path: no error allocation for the common case
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// SetDeadline stores a deadline hint (rounded up to a whole
// millisecond so a short positive budget never encodes as 0).
func (m Metadata) SetDeadline(d time.Duration) {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	m[MetaDeadline] = strconv.FormatInt(int64(ms), 10)
}

// FullMeta merges the request's dedicated identity fields into its
// metadata map, giving server-side middleware one uniform view. The
// returned map is a copy; mutating it does not alter the request.
func (r *Request) FullMeta() Metadata {
	m := r.Meta.Clone()
	if r.Caller != "" {
		m[MetaCaller] = r.Caller
	}
	if r.Credential != "" {
		m[MetaCredential] = r.Credential
	}
	return m
}
