package links_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/links"
	"repro/internal/wire"
)

// coLocatedSpec is an And negotiation whose five targets live on two
// nodes, a shape no production caller builds (one entity per user) but
// the protocol must still serve.
func coLocatedSpec(meeting string) links.Spec {
	return links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", meeting)},
		Targets:    refs("b", "s1", "b", "s2", "b", "s3", "c", "s1", "c", "s2"),
		Constraint: links.And,
	}
}

func refKey(r links.EntityRef) string { return r.User + "/" + r.Entity }

func sortedKeys(rs []links.EntityRef) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = refKey(r)
	}
	sort.Strings(out)
	return out
}

func sameRefs(t *testing.T, what string, got, want []links.EntityRef) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s = %v, want %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s = %v, want %v", what, g, w)
		}
	}
}

// TestCoLocatedAndConflict: a conflict among co-located And targets
// rejects the conflicting entity and the skipped tail after it, applies
// nothing, and releases the locks the earlier marks took.
func TestCoLocatedAndConflict(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("s2", "OTHER")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), coLocatedSpec("M2"))
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v, want conflict", err)
	}
	if res.State != links.StateAborted || len(res.Accepted) != 0 {
		t.Fatalf("result = %+v", res)
	}
	// b/s1 marked, b/s2 conflicts, everything after it is skipped.
	sameRefs(t, "Rejected", res.Rejected, refs("b", "s2", "b", "s3", "c", "s1", "c", "s2"))
	if got := h.nodes["b"].status("s1"); got != "" {
		t.Fatalf("aborted negotiation left b/s1 = %q", got)
	}
	for _, u := range []string{"b", "c"} {
		if n := h.nodes[u].Links.Locks.Len(); n != 0 {
			t.Fatalf("%s has %d leaked locks", u, n)
		}
	}
	// A fresh negotiation over the same entities (minus the conflict)
	// works.
	if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M3")},
		Targets: refs("b", "s1", "b", "s3"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("post-abort negotiation failed: %v", err)
	}
}

// TestCoLocatedOrPartial: Or(k=2) with one co-located conflict marks
// the free entities and commits just those.
func TestCoLocatedOrPartial(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("s2", "OTHER")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M4")},
		Targets:    refs("b", "s1", "b", "s2", "c", "s1"),
		Constraint: links.Or, K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("result = %+v", res)
	}
	sameRefs(t, "Accepted", res.Accepted, refs("b", "s1", "c", "s1"))
	sameRefs(t, "Rejected", res.Rejected, refs("b", "s2"))
	if h.nodes["b"].status("s1") != "M4" || h.nodes["c"].status("s1") != "M4" {
		t.Fatalf("accepted targets not applied: b/s1=%q c/s1=%q",
			h.nodes["b"].status("s1"), h.nodes["c"].status("s1"))
	}
	if h.nodes["b"].status("s2") != "OTHER" {
		t.Fatalf("rejected target overwritten: b/s2=%q", h.nodes["b"].status("s2"))
	}
}

// TestCoLocatedRedrive: a coordinator that loses connectivity during
// phase 2 of a co-located negotiation journals the decision; the retry
// sweep later redrives both entities and the participant converges
// with no pending mark left.
func TestCoLocatedRedrive(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "b" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected crash"}
		}
		return nil
	})
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M8")},
		Targets: refs("b", "s1", "b", "s2"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if res.State != links.StateInDoubt || len(res.InDoubt) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if n := len(lm.JournalPending()); n != 1 {
		t.Fatalf("journal rows = %d, want 1", n)
	}

	lm.SetCommitFault(nil)
	h.clk.Advance(time.Second)
	if n := lm.FaultSweep(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("sweep resolved %d rows, want 1", n)
	}
	if n := len(lm.JournalPending()); n != 0 {
		t.Fatalf("journal did not drain: %v", lm.JournalPending())
	}
	if h.nodes["b"].status("s1") != "M8" || h.nodes["b"].status("s2") != "M8" {
		t.Fatalf("redrive did not apply: s1=%q s2=%q",
			h.nodes["b"].status("s1"), h.nodes["b"].status("s2"))
	}
	if n := h.nodes["b"].Links.PendingMarks(); n != 0 {
		t.Fatalf("participant still holds %d pending marks", n)
	}
}
