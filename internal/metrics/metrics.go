// Package metrics is the per-layer observability surface of the call
// paths: lock-light counters and latency histograms keyed by (service,
// method, error code). The observe stages of the engine's client path
// and the listener's server path both feed a Registry; the sys.<user>
// introspection service exposes its Snapshot.
//
// Recording is designed for the hot path: one RLock'd map probe plus a
// handful of atomic adds per observation (a miss takes the write lock
// once per new series). Histograms use power-of-two microsecond
// buckets, so percentiles are upper-bound estimates with ≤2x
// resolution — plenty for spotting a slow method, cheap enough to
// leave on in production.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// numBuckets covers 1µs .. ~33s in power-of-two steps, plus a final
// overflow bucket.
const numBuckets = 26

// bucketOf maps a duration to its histogram bucket: bucket i holds
// observations with d <= 1µs << i.
func bucketOf(d time.Duration) int {
	us := int64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := bits.Len64(uint64(us - 1)) // ceil(log2(us))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketUpperUs is bucket i's inclusive upper bound in microseconds.
func bucketUpperUs(i int) float64 {
	return float64(int64(1) << i)
}

// Layer identifies which side of an RPC produced an observation.
type Layer string

// Layers.
const (
	LayerClient Layer = "client" // engine call path (includes transport time)
	LayerServer Layer = "server" // listener request path (handler time only)
	LayerWAL    Layer = "wal"    // durability subsystem (internal/wal): commit, fsync, batch, recovery, checkpoint
	LayerLinks  Layer = "links"  // negotiation protocol: outcomes, commit retries, journal expiry, participant resolution
	LayerRepl   Layer = "repl"   // replication: WAL shipping, snapshot bootstrap, lease renewal, promotion
	LayerSync   Layer = "sync"   // disconnected operation: offline queue, reconnect push/pull sessions
)

type seriesKey struct {
	Layer   Layer
	Service string
	Method  string
	Code    wire.ErrCode
}

type series struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func (s *series) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.count.Add(1)
	s.sumNs.Add(int64(d))
	for {
		cur := s.maxNs.Load()
		if int64(d) <= cur || s.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	s.buckets[bucketOf(d)].Add(1)
}

// Registry aggregates observations. The zero value is NOT ready; use
// NewRegistry. Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	series map[seriesKey]*series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[seriesKey]*series)}
}

// defaultRegistry is the process-wide registry used when callers do
// not wire their own (sydnode, the experiment tests' World).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Observe records one completed invocation of service.method at the
// given layer that finished with code after duration d.
func (r *Registry) Observe(layer Layer, service, method string, code wire.ErrCode, d time.Duration) {
	if r == nil {
		return
	}
	key := seriesKey{Layer: layer, Service: service, Method: method, Code: code}
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s == nil {
		r.mu.Lock()
		if s = r.series[key]; s == nil {
			s = &series{}
			r.series[key] = s
		}
		r.mu.Unlock()
	}
	s.observe(d)
}

// Entry is one (service, method, code) series in a Snapshot.
type Entry struct {
	Layer   Layer        `json:"layer"`
	Service string       `json:"service"`
	Method  string       `json:"method"`
	Code    wire.ErrCode `json:"code,omitempty"`
	Count   int64        `json:"count"`
	AvgMs   float64      `json:"avgMs"`
	P50Ms   float64      `json:"p50Ms"`
	P95Ms   float64      `json:"p95Ms"`
	P99Ms   float64      `json:"p99Ms"`
	MaxMs   float64      `json:"maxMs"`
}

// Snapshot is a point-in-time copy of a Registry, sorted by service,
// method, then code.
type Snapshot struct {
	Entries []Entry `json:"entries"`
}

// percentile returns the upper bound (ms) of the bucket holding the
// q-th quantile observation.
func percentile(buckets *[numBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += buckets[i]
		if cum >= rank {
			return bucketUpperUs(i) / 1000
		}
	}
	return bucketUpperUs(numBuckets-1) / 1000
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	keys := make([]seriesKey, 0, len(r.series))
	refs := make([]*series, 0, len(r.series))
	for k, s := range r.series {
		keys = append(keys, k)
		refs = append(refs, s)
	}
	r.mu.RUnlock()

	snap := Snapshot{Entries: make([]Entry, 0, len(keys))}
	for i, k := range keys {
		s := refs[i]
		count := s.count.Load()
		if count == 0 {
			continue
		}
		var buckets [numBuckets]int64
		for b := 0; b < numBuckets; b++ {
			buckets[b] = s.buckets[b].Load()
		}
		snap.Entries = append(snap.Entries, Entry{
			Layer:   k.Layer,
			Service: k.Service,
			Method:  k.Method,
			Code:    k.Code,
			Count:   count,
			AvgMs:   float64(s.sumNs.Load()) / float64(count) / 1e6,
			P50Ms:   percentile(&buckets, count, 0.50),
			P95Ms:   percentile(&buckets, count, 0.95),
			P99Ms:   percentile(&buckets, count, 0.99),
			MaxMs:   float64(s.maxNs.Load()) / 1e6,
		})
	}
	sort.Slice(snap.Entries, func(i, j int) bool {
		a, b := snap.Entries[i], snap.Entries[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Code < b.Code
	})
	return snap
}

// Find returns the entry for (layer, service, method, code), or nil.
func (s Snapshot) Find(layer Layer, service, method string, code wire.ErrCode) *Entry {
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Layer == layer && e.Service == service && e.Method == method && e.Code == code {
			return e
		}
	}
	return nil
}

// Render formats the snapshot as an aligned text table.
func (s Snapshot) Render() string {
	if len(s.Entries) == 0 {
		return "(no metrics recorded)\n"
	}
	var b strings.Builder
	rows := make([][]string, 0, len(s.Entries)+1)
	rows = append(rows, []string{"layer", "service", "method", "code", "count", "avg-ms", "p50-ms", "p95-ms", "p99-ms", "max-ms"})
	for _, e := range s.Entries {
		code := string(e.Code)
		if code == "" {
			code = "ok"
		}
		rows = append(rows, []string{
			string(e.Layer), e.Service, e.Method, code,
			fmt.Sprintf("%d", e.Count),
			fmt.Sprintf("%.3f", e.AvgMs),
			fmt.Sprintf("%.3f", e.P50Ms),
			fmt.Sprintf("%.3f", e.P95Ms),
			fmt.Sprintf("%.3f", e.P99Ms),
			fmt.Sprintf("%.3f", e.MaxMs),
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
