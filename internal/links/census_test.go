package links_test

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rpcCensus counts the links.* requests participants' listeners serve,
// by method — every one of them crossed the sim network.
type rpcCensus struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *rpcCensus) wrap(next transport.HandlerFunc) transport.HandlerFunc {
	return func(ctx context.Context, req *transport.Request) transport.Response {
		if strings.HasPrefix(req.Service, links.ServicePrefix) {
			c.mu.Lock()
			c.n[req.Method]++
			c.mu.Unlock()
		}
		return next(ctx, req)
	}
}

func (c *rpcCensus) want(t *testing.T, want map[string]int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !maps.Equal(c.n, want) {
		t.Fatalf("links RPC census = %v, want %v", c.n, want)
	}
}

// newCensusHarness is a traced harness whose every node also feeds one
// rpcCensus.
func newCensusHarness(t *testing.T, users ...string) (*harness, *rpcCensus, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector()
	census := &rpcCensus{n: make(map[string]int)}
	h := newHarness(t)
	for _, u := range users {
		h.addNode(u, func(c *core.Config) {
			c.Tracer = col.Tracer(u, trace.WithSampleRate(1))
			c.Net = inboundNet{Network: c.Net, wrap: census.wrap}
		})
	}
	return h, census, col
}

// negotiationSpans counts the coordinator-side protocol spans of the
// one negotiation the collector holds.
func negotiationSpans(t *testing.T, col *trace.Collector) map[string]int {
	t.Helper()
	tree := findTree(trace.Stitch(col.Spans()), "links.Negotiate")
	if tree == nil {
		t.Fatal("no trace rooted at links.Negotiate")
	}
	got := make(map[string]int)
	for name, n := range spanNames(tree) {
		switch name {
		case "links.Mark", "links.Commit", "links.Abort":
			got[name] = n
		}
	}
	return got
}

// negotiationSteps returns the protocol steps of the one negotiation the
// collector holds: the events of its links.Negotiate span, in order.
func negotiationSteps(t *testing.T, col *trace.Collector) []trace.Event {
	t.Helper()
	var span *trace.Span
	for _, s := range col.Spans() {
		if s.Name == "links.Negotiate" {
			if span != nil {
				t.Fatal("more than one links.Negotiate span")
			}
			span = s
		}
	}
	if span == nil {
		t.Fatal("no links.Negotiate span")
	}
	return span.Events
}

// attr returns the value of e's attr key, or "".
func attr(e trace.Event, key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestRPCCensusAnd pins the protocol's wire cost: an And over N remote
// targets is exactly N Mark + N Commit requests and N links.Mark + N
// links.Commit spans, whether or not targets share a node.
func TestRPCCensusAnd(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets []links.EntityRef
	}{
		{"one entity per node", refs("b", "s", "c", "s", "d", "s")},
		{"co-located", refs("b", "s1", "b", "s2", "c", "s1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, census, col := newCensusHarness(t, "a", "b", "c", "d")
			n := len(tc.targets)
			if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
				Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
				Targets: tc.targets, Constraint: links.And,
			}); err != nil {
				t.Fatal(err)
			}
			census.want(t, map[string]int{"Mark": n, "Commit": n})
			if got, want := negotiationSpans(t, col), map[string]int{"links.Mark": n, "links.Commit": n}; !maps.Equal(got, want) {
				t.Fatalf("spans = %v, want %v", got, want)
			}
		})
	}
}

// TestRPCCensusAndFailure: a failed And sends no Mark past the first
// failure and exactly one Abort per mark it holds.
func TestRPCCensusAndFailure(t *testing.T) {
	h, census, col := newCensusHarness(t, "a", "b", "c", "d", "e")
	h.nodes["d"].setStatus("s", "OTHER")
	_, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("b", "s", "c", "s", "d", "s", "e", "s"), Constraint: links.And,
	})
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v, want conflict", err)
	}
	// b and c marked, d refused, e never asked.
	census.want(t, map[string]int{"Mark": 3, "Abort": 2})
	if got, want := negotiationSpans(t, col), map[string]int{"links.Mark": 3, "links.Abort": 2}; !maps.Equal(got, want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
}

// TestRPCCensusOr pins the Or paths' wire cost over N remote targets
// that all accept. With k = 1 each target decides alone, so the reserve
// is one-phase: exactly N Commit requests and spans and no Mark, its
// change events in target order. With k = 2 the parallel mark path runs:
// exactly N Mark + N Commit requests and spans, and the span's mark
// events list the marks in target order, however the concurrent marks
// finished.
func TestRPCCensusOr(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		phase string
		want  map[string]int // requests per target, by method
	}{
		{"k=1", 1, "change", map[string]int{"Commit": 1}},
		{"k=2", 2, "mark", map[string]int{"Mark": 1, "Commit": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, census, col := newCensusHarness(t, "a", "b", "c", "d", "e")
			targets := refs("e", "s", "b", "s", "d", "s", "c", "s")
			if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
				Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
				Targets: targets, Constraint: links.Or, K: tc.k,
			}); err != nil {
				t.Fatal(err)
			}
			want, spans := map[string]int{}, map[string]int{}
			for method, per := range tc.want {
				want[method], spans["links."+method] = per*len(targets), per*len(targets)
			}
			census.want(t, want)
			if got := negotiationSpans(t, col); !maps.Equal(got, spans) {
				t.Fatalf("spans = %v, want %v", got, spans)
			}
			var stepped, order []string
			for _, e := range negotiationSteps(t, col) {
				if e.Name == tc.phase {
					stepped = append(stepped, attr(e, "entity"))
				}
			}
			for _, ref := range targets {
				order = append(order, ref.String())
			}
			if !slices.Equal(stepped, order) {
				t.Fatalf("%s steps = %v, want target order %v", tc.phase, stepped, order)
			}
		})
	}
}

// TestServiceMethods pins the links service's RPC surface. A method is
// registered by name, so the export census cannot see one that lost its
// caller; this list can, because each entry names who sends it.
func TestServiceMethods(t *testing.T) {
	want := []string{
		"Abort",           // negotiate.go abortTarget: phase 1 failed, release the mark
		"AddLink",         // manager.go InstallAt at a remote user
		"Apply",           // manager.go applyRemote: a subscription trigger's action
		"Commit",          // negotiate.go commitTargetInner (phase 2, or a one-phase reserve's only request) and the journal redrive
		"DeleteLink",      // manager.go deliverDelete
		"DeleteLinkLocal", // calendar meetings.go: a dropped user's own row
		"Mark",            // negotiate.go markTargetInner: phase 1
		"QueryOutcome",    // participant.go: an in-doubt participant asks the coordinator
	}
	h := newHarness(t, "a")
	if got := h.nodes["a"].Links.Object().Methods(); !slices.Equal(got, want) {
		t.Fatalf("links service methods = %v, want %v", got, want)
	}
}
