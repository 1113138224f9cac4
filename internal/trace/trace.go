// Package trace is the SyD stack's distributed tracing subsystem: a
// zero-dependency span model whose context rides a request's
// wire.Metadata, so one logical operation —
// a group invocation fanning out to eight devices, a two-phase
// negotiation spanning coordinator, directory, and participants — is
// visible as a single causal tree across nodes.
//
// The design follows the same hot-path discipline as internal/metrics:
//
//   - When no tracer is installed (the default) every instrumentation
//     point is a nil check — zero allocations on the RPC hot path.
//   - A tracer samples at the root: the decision propagates to every
//     child, local and remote, via the trace-sampled metadata flag.
//   - Unsampled traces are not discarded immediately. Their spans are
//     parked in a small per-trace tail buffer until the trace quiesces
//     on this node; if any span turned out slow (>= the tracer's slow
//     threshold) or ended in doubt (wire.CodeInDoubt, or an explicit
//     Keep), the whole local segment is promoted into the ring. Slow
//     and in-doubt traces are therefore always retained, whatever the
//     sample rate — the property the negotiation recovery machinery
//     depends on.
//   - Finished spans land in a lock-striped bounded ring buffer per
//     node; old spans are overwritten, never accumulated.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Metadata keys carrying span context on the wire.
const (
	// MetaTraceID identifies the whole causal tree.
	MetaTraceID = "trace-id"
	// MetaSpanID is the sender's span id — the parent of whatever span
	// the receiver opens for the request.
	MetaSpanID = "span-id"
	// MetaParentSpanID is the sender's own parent, so a collector can
	// stitch around a node whose spans were lost or never exported.
	MetaParentSpanID = "parent-span-id"
	// MetaSampled marks the trace as head-sampled; receivers record
	// its spans unconditionally instead of tail-buffering them.
	MetaSampled = "trace-sampled"
)

// Attr is one key=value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attr.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attr.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Int64 builds a 64-bit integer attr.
func Int64(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attr.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(v)} }

// Event is a timestamped point annotation inside a span (a journal
// write, a decided token, a reconnect).
type Event struct {
	At    time.Time `json:"at"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. Fields are exported for the
// JSONL exporter and the introspection service; mutate spans only
// through the methods, which are safe for concurrent use.
type Span struct {
	TraceID  string       `json:"trace"`
	SpanID   string       `json:"span"`
	ParentID string       `json:"parent,omitempty"`
	Node     string       `json:"node"`
	Name     string       `json:"name"`
	Start    time.Time    `json:"start"`
	End      time.Time    `json:"end"`
	Code     wire.ErrCode `json:"code,omitempty"`
	Err      string       `json:"err,omitempty"`
	Attrs    []Attr       `json:"attrs,omitempty"`
	Events   []Event      `json:"events,omitempty"`

	tracer   *Tracer
	mu       sync.Mutex
	sampled  bool
	keep     bool
	finished bool
}

// Duration returns the span's wall-clock duration (0 while open).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Annotate attaches attrs to the span. Nil-safe.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, attrs...)
	s.mu.Unlock()
}

// AddEvent records a timestamped point annotation. Nil-safe, and it copies
// attrs: an event on a nil span (tracing off) allocates nothing.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Events = append(s.Events, Event{At: time.Now(), Name: name, Attrs: append([]Attr(nil), attrs...)})
	s.mu.Unlock()
}

// SetError records err's message and wire code on the span. A
// wire.CodeInDoubt error forces retention of the whole local trace
// segment, whatever the sample rate. Nil-safe; a nil err is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	code := wire.CodeOf(err)
	if code == wire.CodeInternal {
		// Errors outside the RPC path (e.g. the links package's
		// InDoubtError) expose their code directly rather than as a
		// *wire.RemoteError.
		var coded interface{ Code() wire.ErrCode }
		if errors.As(err, &coded) {
			code = coded.Code()
		}
	}
	s.mu.Lock()
	s.Err = err.Error()
	s.Code = code
	if code == wire.CodeInDoubt {
		s.keep = true
	}
	s.mu.Unlock()
}

// Inject stamps the span's context onto outbound request metadata.
// Nil-safe: without a span the metadata is left untouched.
func (s *Span) Inject(md wire.Metadata) {
	if s == nil || md == nil {
		return
	}
	md[MetaTraceID] = s.TraceID
	md[MetaSpanID] = s.SpanID
	if s.ParentID != "" {
		md[MetaParentSpanID] = s.ParentID
	}
	if s.sampled {
		md[MetaSampled] = "1"
	}
}

// Finish closes the span and hands it to its tracer for recording.
// Nil-safe; double Finish is a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.End = time.Now()
	s.mu.Unlock()
	s.tracer.record(s)
}

// FinishErr records err (if any) and finishes, the common tail of an
// instrumented call. Nil-safe.
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	s.SetError(err)
	s.Finish()
}

// --- context plumbing -------------------------------------------------------

type spanCtxKey struct{}

// ContextWithSpan attaches s to ctx.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// FromContext returns the span attached to ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Start opens a child of the span in ctx, using that span's tracer.
// With no span in ctx it is a no-op returning (ctx, nil) — packages
// below the kernel (directory, transport, store) instrument through
// this so they need no tracer handle of their own.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.StartSpan(ctx, name)
}

// --- tracer -----------------------------------------------------------------

// ring sizing: shards * shardCap spans retained per node.
const (
	ringShards      = 8
	defaultCapacity = 4096
	// tail buffer bounds: unsampled open traces parked per node, and
	// spans parked per trace, before new spans are dropped (counted).
	maxPendingTraces    = 256
	maxPendingSpanCount = 512
)

type ringShard struct {
	mu   sync.Mutex
	buf  []*Span
	next int
}

// Tracer records spans for one node. Safe for concurrent use.
type Tracer struct {
	node string

	rateBits atomic.Uint64 // math.Float64bits of the sample rate
	slowNs   atomic.Int64  // slow-trace retention threshold
	rng      atomic.Uint64 // xorshift64 state for ids + sampling

	shards   [ringShards]ringShard
	shardCap int

	pendMu  sync.Mutex
	pending map[string]*pendingTrace // traceID -> unsampled open segment

	dropped atomic.Int64 // spans lost to tail-buffer overflow
}

// pendingTrace is an unsampled trace's local segment awaiting its
// keep-or-drop verdict.
type pendingTrace struct {
	active int // open spans of this trace on this node
	keep   bool
	spans  []*Span
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSampleRate head-samples root spans at rate (0..1).
func WithSampleRate(rate float64) Option {
	return func(t *Tracer) { t.SetSampleRate(rate) }
}

// WithSlowThreshold retains any trace segment containing a span at
// least d long, regardless of the sample rate (0 disables).
func WithSlowThreshold(d time.Duration) Option {
	return func(t *Tracer) { t.slowNs.Store(int64(d)) }
}

// WithCapacity sets the node's span ring capacity (rounded up to a
// multiple of the shard count).
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.shardCap = (n + ringShards - 1) / ringShards
		}
	}
}

// New creates a tracer for the named node.
func New(node string, opts ...Option) *Tracer {
	t := &Tracer{
		node:     node,
		shardCap: defaultCapacity / ringShards,
		pending:  make(map[string]*pendingTrace),
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		panic("trace: rand: " + err.Error())
	}
	t.rng.Store(binary.LittleEndian.Uint64(seed[:]) | 1)
	for _, o := range opts {
		o(t)
	}
	return t
}

// Node returns the tracer's node name.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// SetSampleRate updates the head-sampling rate at runtime.
func (t *Tracer) SetSampleRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.rateBits.Store(math.Float64bits(rate))
}

// Dropped reports spans lost to tail-buffer overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// next64 steps the tracer's xorshift64 state. Cheaper than crypto/rand
// per span; ids only need uniqueness, not unpredictability.
func (t *Tracer) next64() uint64 {
	for {
		old := t.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if t.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

const hexDigits = "0123456789abcdef"

// hex16 formats v as 16 lowercase hex digits with one allocation.
func hex16(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// newID mints a 64-bit hex id.
func (t *Tracer) newID() string { return hex16(t.next64()) }

// sample draws the head-sampling decision for a new root.
func (t *Tracer) sample() bool {
	rate := math.Float64frombits(t.rateBits.Load())
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// Top 53 bits -> uniform [0,1).
	return float64(t.next64()>>11)/(1<<53) < rate
}

// StartSpan opens a span named name. If ctx carries a span the new one
// is its child (same trace, same sampling verdict); otherwise it is a
// new root and the head-sampling decision is drawn. Nil-safe: a nil
// tracer returns (ctx, nil), and every Span method no-ops on nil.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		SpanID: t.newID(),
		Node:   t.node,
		Name:   name,
		Start:  time.Now(),
	}
	if parent := FromContext(ctx); parent != nil {
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
		s.sampled = parent.sampled
	} else {
		s.TraceID = t.newID()
		s.sampled = t.sample()
	}
	t.noteOpen(s)
	return ContextWithSpan(ctx, s), s
}

// StartRemote opens the server-side span for an inbound request whose
// metadata may carry trace context. Without inbound context it behaves
// like a root StartSpan.
func (t *Tracer) StartRemote(ctx context.Context, name string, md wire.Metadata) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tid := md.Get(MetaTraceID)
	if tid == "" {
		return t.StartSpan(ctx, name)
	}
	s := &Span{
		tracer:   t,
		TraceID:  tid,
		SpanID:   t.newID(),
		ParentID: md.Get(MetaSpanID),
		Node:     t.node,
		Name:     name,
		Start:    time.Now(),
		sampled:  md.Get(MetaSampled) != "",
	}
	t.noteOpen(s)
	return ContextWithSpan(ctx, s), s
}

// JoinTrace opens a span attached to an already-known trace — the
// recovery path (journal redrive, in-doubt resolution) uses it to put
// post-mortem work into the trace of the negotiation that spawned it,
// minutes after the original spans closed. Joined spans are always
// retained (Keep), since recovery only runs when something went wrong.
func (t *Tracer) JoinTrace(traceID, parentID, name string) *Span {
	if t == nil {
		return nil
	}
	if traceID == "" {
		traceID = t.newID()
	}
	s := &Span{
		tracer:   t,
		TraceID:  traceID,
		SpanID:   t.newID(),
		ParentID: parentID,
		Node:     t.node,
		Name:     name,
		Start:    time.Now(),
		keep:     true,
	}
	t.noteOpen(s)
	return s
}

// noteOpen registers an unsampled span in its trace's tail buffer.
// Sampled spans skip the buffer entirely — they go straight to the
// ring at Finish.
func (t *Tracer) noteOpen(s *Span) {
	if s.sampled {
		return
	}
	t.pendMu.Lock()
	p := t.pending[s.TraceID]
	if p == nil {
		if len(t.pending) >= maxPendingTraces {
			// Too many open unsampled traces: this one loses tail
			// retention (it can still be kept explicitly via Keep —
			// record() checks the flag directly).
			t.pendMu.Unlock()
			t.dropped.Add(1)
			return
		}
		p = &pendingTrace{}
		t.pending[s.TraceID] = p
	}
	p.active++
	t.pendMu.Unlock()
}

// record routes a finished span to the ring (sampled or kept) or its
// trace's tail buffer (unsampled, verdict pending).
func (t *Tracer) record(s *Span) {
	slow := t.slowNs.Load()
	isSlow := slow > 0 && s.End.Sub(s.Start) >= time.Duration(slow)
	s.mu.Lock()
	kept := s.keep
	s.mu.Unlock()
	if s.sampled {
		t.push(s)
		return
	}

	t.pendMu.Lock()
	p := t.pending[s.TraceID]
	if p == nil {
		// The trace overflowed the tail buffer at open time (or the
		// span finished after its segment was flushed): keep it only
		// on explicit merit.
		t.pendMu.Unlock()
		if kept || isSlow {
			t.push(s)
		}
		return
	}
	p.active--
	if kept || isSlow {
		p.keep = true
	}
	if len(p.spans) < maxPendingSpanCount {
		p.spans = append(p.spans, s)
	} else {
		t.dropped.Add(1)
	}
	if p.active > 0 {
		t.pendMu.Unlock()
		return
	}
	// The trace quiesced on this node: verdict time.
	delete(t.pending, s.TraceID)
	keep, spans := p.keep, p.spans
	t.pendMu.Unlock()
	if keep {
		for _, sp := range spans {
			t.push(sp)
		}
	}
}

// push writes a finished span into its ring shard.
func (t *Tracer) push(s *Span) {
	sh := &t.shards[shardOf(s.TraceID)]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = make([]*Span, t.shardCap)
	}
	sh.buf[sh.next] = s
	sh.next = (sh.next + 1) % len(sh.buf)
	sh.mu.Unlock()
}

// shardOf hashes a trace id to a ring shard (FNV-1a over the string),
// keeping one trace's spans in one shard.
func shardOf(traceID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(traceID); i++ {
		h ^= uint32(traceID[i])
		h *= 16777619
	}
	return int(h % ringShards)
}

// Snapshot copies the retained spans out of the ring, oldest first
// within each shard. Open and tail-buffered spans are not included.
func (t *Tracer) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := len(sh.buf)
		for j := 0; j < n; j++ {
			if s := sh.buf[(sh.next+j)%n]; s != nil {
				out = append(out, s)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
