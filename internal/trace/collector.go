package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Collector aggregates the rings of several tracers — one per node in
// a deployment or a sim-network test — and stitches their spans into
// whole-trace trees. It is the in-process equivalent of a tracing
// backend: tests assert on its trees and render them.
type Collector struct {
	mu      sync.Mutex
	tracers []*Tracer
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Tracer creates a node tracer registered with the collector.
func (c *Collector) Tracer(node string, opts ...Option) *Tracer {
	t := New(node, opts...)
	c.Attach(t)
	return t
}

// Attach registers an existing tracer with the collector.
func (c *Collector) Attach(t *Tracer) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.mu.Unlock()
}

// Spans snapshots every attached tracer's ring.
func (c *Collector) Spans() []*Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	tracers := append([]*Tracer(nil), c.tracers...)
	c.mu.Unlock()
	var out []*Span
	for _, t := range tracers {
		out = append(out, t.Snapshot()...)
	}
	return out
}

// --- stitching --------------------------------------------------------------

// Node is one span plus its resolved children, ordered by start time.
type Node struct {
	Span     *Span
	Children []*Node
}

// Tree is one stitched trace: its roots (usually one; several when the
// true root's span was lost) and summary figures.
type Tree struct {
	TraceID string
	Roots   []*Node
	Spans   int
	Nodes   int // distinct SyD nodes that contributed spans
	// Start and Duration cover the whole tree (earliest start to
	// latest end across every span).
	Start    time.Time
	Duration time.Duration
	// InDoubt reports whether any span ended with wire.CodeInDoubt.
	InDoubt bool
}

// Stitch groups spans by trace id and links parents to children. Spans
// whose parent is absent (lost, unsampled elsewhere, or a true root)
// become roots of the tree.
func Stitch(spans []*Span) []*Tree {
	byTrace := make(map[string][]*Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]*Tree, 0, len(byTrace))
	for tid, ss := range byTrace {
		nodes := make(map[string]*Node, len(ss))
		for _, s := range ss {
			nodes[s.SpanID] = &Node{Span: s}
		}
		t := &Tree{TraceID: tid, Spans: len(ss)}
		seen := make(map[string]bool)
		var maxEnd time.Time
		for _, s := range ss {
			if !seen[s.Node] {
				seen[s.Node] = true
				t.Nodes++
			}
			if s.Code == wire.CodeInDoubt {
				t.InDoubt = true
			}
			if t.Start.IsZero() || s.Start.Before(t.Start) {
				t.Start = s.Start
			}
			if s.End.After(maxEnd) {
				maxEnd = s.End
			}
			n := nodes[s.SpanID]
			if p, ok := nodes[s.ParentID]; ok && s.ParentID != s.SpanID {
				p.Children = append(p.Children, n)
			} else {
				t.Roots = append(t.Roots, n)
			}
		}
		if !maxEnd.IsZero() {
			t.Duration = maxEnd.Sub(t.Start)
		}
		for _, n := range nodes {
			sortNodes(n.Children)
		}
		sortNodes(t.Roots)
		out = append(out, t)
	}
	// Slowest first — the order an operator wants them in.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		if !ns[i].Span.Start.Equal(ns[j].Span.Start) {
			return ns[i].Span.Start.Before(ns[j].Span.Start)
		}
		return ns[i].Span.SpanID < ns[j].Span.SpanID
	})
}

// --- rendering --------------------------------------------------------------

// Render draws the tree as a text flame tree, one span per line:
//
//	trace 9c00f5… 14.2ms spans=9 nodes=4 IN-DOUBT
//	└─ links.Negotiate 14.2ms @u00 code=in-doubt nid=N-…
//	   ├─ links.Mark 1.1ms @u00 target=u01/slot…
//	   │  └─ rpc.server 0.6ms @u01 service=links.u01 method=Mark
//	   └─ links.Commit 2.0ms @u00 target=u01/slot… code=unavailable
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s spans=%d nodes=%d", t.TraceID, fmtDur(t.Duration), t.Spans, t.Nodes)
	if t.InDoubt {
		b.WriteString(" IN-DOUBT")
	}
	b.WriteByte('\n')
	for i, r := range t.Roots {
		renderNode(&b, r, "", i == len(t.Roots)-1)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	s := n.Span
	fmt.Fprintf(b, "%s%s%s %s @%s", prefix, branch, s.Name, fmtDur(s.Duration()), s.Node)
	if s.Code != "" {
		fmt.Fprintf(b, " code=%s", s.Code)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	for _, ev := range s.Events {
		fmt.Fprintf(b, " [%s", ev.Name)
		for _, a := range ev.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	for i, c := range n.Children {
		renderNode(b, c, childPrefix, i == len(n.Children)-1)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// --- JSONL export -----------------------------------------------------------

// WriteJSONL writes one JSON object per span — the exchange format for
// offline analysis (jq, a spreadsheet, a real tracing backend).
func WriteJSONL(w io.Writer, spans []*Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.mu.Lock()
		err := enc.Encode(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
