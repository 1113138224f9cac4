package links_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newTracedHarness builds a sim deployment where every node records
// spans into one collector — the in-process stand-in for a tracing
// backend — at the given head-sampling rate.
func newTracedHarness(t *testing.T, col *trace.Collector, rate float64, users ...string) *harness {
	t.Helper()
	h := newHarness(t)
	for _, u := range users {
		h.addNode(u, func(c *core.Config) { c.Tracer = col.Tracer(u, trace.WithSampleRate(rate)) })
	}
	return h
}

// spanNames flattens a stitched tree into its span names.
func spanNames(tr *trace.Tree) map[string]int {
	names := make(map[string]int)
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		names[n.Span.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tr.Roots {
		walk(r)
	}
	return names
}

func findTree(trees []*trace.Tree, rootName string) *trace.Tree {
	for _, tr := range trees {
		for _, r := range tr.Roots {
			if r.Span.Name == rootName {
				return tr
			}
		}
	}
	return nil
}

// TestGroupInvokeStitchedTrace drives a group invocation across three
// sim nodes and asserts the collector stitches ONE trace whose edges
// are exactly the fan-out: rpc.group -> one rpc.client per target ->
// that target's rpc.server.
func TestGroupInvokeStitchedTrace(t *testing.T) {
	col := trace.NewCollector()
	h := newTracedHarness(t, col, 1.0, "a", "x", "y")
	ctx := context.Background()

	results := h.nodes["a"].Engine.GroupInvoke(ctx,
		[]string{links.ServiceFor("x"), links.ServiceFor("y")}, "QueryOutcome", wire.Args{wire.Str("nid", "none")})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("group member %s: %v", r.Service, r.Err)
		}
	}

	tree := findTree(trace.Stitch(col.Spans()), "rpc.group")
	if tree == nil {
		t.Fatalf("no stitched trace rooted at rpc.group; trees: %d", len(trace.Stitch(col.Spans())))
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(tree.Roots))
	}
	if tree.Nodes != 3 {
		t.Errorf("tree.Nodes = %d, want 3 (a, x, y)", tree.Nodes)
	}
	root := tree.Roots[0]
	clients := 0
	serverNodes := map[string]bool{}
	for _, c := range root.Children {
		if c.Span.Name != "rpc.client" {
			t.Errorf("unexpected child of rpc.group: %s", c.Span.Name)
			continue
		}
		clients++
		if c.Span.Node != "a" {
			t.Errorf("rpc.client recorded on node %s, want a", c.Span.Node)
		}
		for _, g := range c.Children {
			if g.Span.Name == "rpc.server" {
				serverNodes[g.Span.Node] = true
				if g.Span.ParentID != c.Span.SpanID {
					t.Errorf("rpc.server parent = %s, want its rpc.client %s", g.Span.ParentID, c.Span.SpanID)
				}
			}
		}
	}
	if clients != 2 {
		t.Errorf("rpc.group has %d rpc.client children, want 2", clients)
	}
	if !serverNodes["x"] || !serverNodes["y"] {
		t.Errorf("server spans stitched under the wrong clients: %v", serverNodes)
	}
}

// TestInDoubtNegotiationTraceRetained reproduces the chaos scenario the
// tracing subsystem exists for: a coordinator whose Commit to one
// target fails leaves the negotiation in doubt, and — at sample rate
// ZERO — the whole trace must still be retained, showing the failed
// Commit, the participant's QueryOutcome resolution, and the journal
// redrive, stitched into one renderable tree.
func TestInDoubtNegotiationTraceRetained(t *testing.T) {
	col := trace.NewCollector()
	h := newTracedHarness(t, col, 0, "a", "x", "y")
	ctx := context.Background()

	// Commits from a to x fail at the coordinator (a "crash" between
	// the two phase-2 sends).
	h.nodes["a"].Links.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "x" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: coordinator crash"}
		}
		return nil
	})
	res, err := h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")},
		Targets: refs("x", "s0", "y", "s0"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("Negotiate err = %v, want InDoubtError", err)
	}
	if res.State != links.StateInDoubt {
		t.Fatalf("state = %s, want in-doubt", res.State)
	}

	// The participant resolves its pending mark first (QueryOutcome ->
	// commit), then the healed coordinator redrives the journal row and
	// collects the duplicate ack.
	if n := h.nodes["x"].Links.FaultSweep(ctx, h.clk.Now()); n != 1 {
		t.Fatalf("x resolved %d marks, want 1", n)
	}
	h.nodes["a"].Links.SetCommitFault(nil)
	h.clk.Advance(time.Second)
	h.nodes["a"].Links.FaultSweep(ctx, h.clk.Now())
	if pending := h.nodes["a"].Links.JournalPending(); len(pending) != 0 {
		t.Fatalf("journal did not drain: %v", pending)
	}
	if got := h.nodes["x"].status("s0"); got != "M1" {
		t.Fatalf("x/s0 = %q, want M1", got)
	}

	tree := findTree(trace.Stitch(col.Spans()), "links.Negotiate")
	if tree == nil {
		t.Fatalf("in-doubt trace was not retained at sample rate 0")
	}
	if !tree.InDoubt {
		t.Errorf("tree not flagged in-doubt")
	}
	names := spanNames(tree)
	for _, want := range []string{"links.Negotiate", "links.Mark", "links.Commit", "links.Redrive", "links.Resolve", "links.QueryOutcome"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %s span; have %v", want, names)
		}
	}
	rendered := tree.Render()
	if !strings.Contains(rendered, "IN-DOUBT") {
		t.Errorf("render lacks IN-DOUBT banner:\n%s", rendered)
	}
	if !strings.Contains(rendered, "code=unavailable") {
		t.Errorf("render lacks the failed Commit's code:\n%s", rendered)
	}
	if !strings.Contains(rendered, "links.Redrive") || !strings.Contains(rendered, "outcome=commit") {
		t.Errorf("render lacks redrive/resolution evidence:\n%s", rendered)
	}
}
