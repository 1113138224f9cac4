package links_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A one-phase reserve (an Or with k = 1, or one target) sends each
// target its Commit and nothing else. These tests hold its three losses
// to what a lost Mark, a lost Commit and a lost ack leave: a Commit that
// never left is no debt, one that left unanswered is redriven, and a
// refusal stays one.

// TestOnePhaseNotSentLeavesNoDebt: b is cut off from a when a reserves
// it, so b's Commit never leaves. b is rejected, not in doubt, and the
// journal row goes with the negotiation: after the cut heals and every
// sweep has run, nothing has applied at b and nobody owes anybody.
func TestOnePhaseNotSentLeavesNoDebt(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	// The sim keys a partition by caller name and address.
	h.net.Partition("a", "node-b")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("b", "s", "c", "s"), Constraint: links.Or,
	})
	if err != nil || !res.OK || len(res.InDoubt) != 0 {
		t.Fatalf("negotiate: %v %+v, want c reserved and b rejected", err, res)
	}
	if len(res.Rejected) != 1 || res.Rejected[0].User != "b" || len(res.Accepted) != 1 || res.Accepted[0].User != "c" {
		t.Fatalf("accepted %v, rejected %v, want c and b", res.Accepted, res.Rejected)
	}
	if p := h.nodes["a"].Links.JournalPending(); len(p) != 0 {
		t.Fatalf("a owes %v for a Commit that never left", p)
	}
	h.net.Heal("a", "node-b")
	for i := 0; i < 3; i++ {
		h.clk.Advance(time.Minute)
		for _, u := range []string{"a", "b", "c"} {
			h.nodes[u].Links.FaultSweep(ctxBg(), h.clk.Now())
		}
	}
	if got := h.nodes["b"].status("s"); got != "" {
		t.Fatalf("b/s = %q after the cut healed, want it untouched", got)
	}
	if got := h.nodes["c"].status("s"); got != "M" {
		t.Fatalf("c/s = %q, want M", got)
	}
	for _, u := range []string{"a", "b", "c"} {
		n := h.nodes[u].Links
		if l, p, j := n.Locks.Len(), n.PendingMarks(), n.JournalPending(); l != 0 || p != 0 || len(j) != 0 {
			t.Errorf("%s: %d locks, %d pending marks, journal %v left", u, l, p, j)
		}
	}

	// The lone target of a reserve that never left fails it as a refusal.
	h.net.Partition("a", "node-b")
	_, err = h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "N")}, Targets: refs("b", "s"),
	})
	if err == nil || links.IsInDoubt(err) || wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("reserve of a cut-off b: %v, want a constraint refusal", err)
	}
	if p := h.nodes["a"].Links.JournalPending(); len(p) != 0 {
		t.Fatalf("a owes %v for a Commit that never left", p)
	}
}

// TestOnePhaseRefusalRedrivenStaysRefused: b refuses its Commit (its
// slot is taken) and the refusal's answer is lost, so a keeps b pending.
// b's slot frees before the redrive arrives; the redriven Commit is
// refused as decided, and nothing applies at b.
func TestOnePhaseRefusalRedrivenStaysRefused(t *testing.T) {
	h := newHarness(t, "a")
	var lost atomic.Bool
	loseRefusal := func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			resp := next(ctx, req)
			if req.Method == "Commit" && !resp.OK && lost.CompareAndSwap(false, true) {
				resp = transport.ErrorResponse(req, wire.CodeUnavailable, "injected: answer lost")
			}
			return resp
		}
	}
	h.addNode("b", func(c *core.Config) { c.Net = inboundNet{Network: c.Net, wrap: loseRefusal} })
	h.nodes["b"].setStatus("s", "OTHER")
	lm := h.nodes["a"].Links
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")}, Targets: refs("b", "s"),
	})
	if !links.IsInDoubt(err) || len(res.InDoubt) != 1 {
		t.Fatalf("err = %v, res = %+v, want b in doubt", err, res)
	}
	h.nodes["b"].setStatus("s", "")
	h.clk.Advance(time.Second)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	if got := h.nodes["b"].status("s"); got != "" {
		t.Fatalf("b/s = %q: the redriven Commit applied after b refused it", got)
	}
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal not retired: %v", p)
	}
	if n := h.nodes["b"].Links.Locks.Len(); n != 0 {
		t.Fatalf("%d locks left at b", n)
	}
}

// TestDecideArgsWithoutJSONFormAbortOnePhase: a decision argument the
// journal cannot encode fails a one-phase reserve before any Commit
// leaves: nothing is applied and no journal row is left.
func TestDecideArgsWithoutJSONFormAbortOnePhase(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	lm := h.nodes["a"].Links
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked")},
		Targets: refs("b", "s", "c", "s"), Constraint: links.Or,
		Decide: func([]links.EntityRef) wire.Args { return wire.Args{wire.Float("score", math.NaN())} },
	})
	if err == nil || res.OK || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("negotiate: %v %+v, want the journal's encode error", err, res)
	}
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal rows left: %v", p)
	}
	for _, u := range []string{"b", "c"} {
		wantNotes(t, h.nodes[u])
		if n := h.nodes[u].Links.Locks.Len(); n != 0 {
			t.Fatalf("%s holds %d locks", u, n)
		}
	}
}

// TestNotSentIsTyped: a call the sim refuses before delivery carries
// transport.ErrNotSent through the engine, beside its unavailable code.
func TestNotSentIsTyped(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.net.Partition("a", "node-b")
	err := h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), "QueryOutcome", wire.Args{wire.Str("nid", "N")}, nil)
	if !errors.Is(err, transport.ErrNotSent) || wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("call to a cut-off peer: %v, want not-sent and unavailable", err)
	}
}
