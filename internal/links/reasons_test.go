package links_test

import (
	"context"
	"testing"

	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestRefusalReasonsCrossTheWire: every delivery in the harness is a v3
// frame round trip, as every sim delivery is, and a participant's
// refusal still reaches the coordinator with its reason: b's
// slot-personal and c's lock-held (a live mark, refused by markLocal) as
// the reasons of their mark events on the links.Negotiate span, the first of them as the
// negotiation's, each failed mark counted once
// in the coordinator's registry. The lock table's refusal of a vote
// (LockTable.Hold) reaches the voter as lock-held too. The third site
// that raises lock-held, the late Commit's TryLock, is reached only when
// another mark lands between its Holder check and its TryLock; it raises
// the same errLockHeld.
func TestRefusalReasonsCrossTheWire(t *testing.T) {
	col := trace.NewCollector()
	h := newTracedHarness(t, col, 1, "a", "b", "c")
	ctx := context.Background()
	reg := metrics.NewRegistry()
	h.nodes["a"].Links.SetMetrics(reg)
	h.nodes["b"].Links.RegisterAction("book", links.Action{Check: func(entity string, _ wire.Args) error {
		return wire.Refuse(wire.ReasonSlotPersonal, "b/%s holds personal:class", entity)
	}})
	h.nodes["c"].Links.RegisterAction("book", links.Action{})

	// Another negotiation has c's slot marked.
	if err := h.nodes["b"].Engine.Invoke(ctx, links.ServiceFor("c"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "book"),
		wire.Str("nid", "N-other"),
	}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "book", Targets: refs("b", "s", "c", "s"), Constraint: links.Or,
	})
	if err == nil || res.OK {
		t.Fatalf("negotiation succeeded: %+v", res)
	}
	if got := wire.ReasonOf(err); got != wire.ReasonSlotPersonal {
		t.Fatalf("negotiation reason = %q (%v), want the first refused mark's", got, err)
	}
	want := map[string]wire.Reason{"b/s": wire.ReasonSlotPersonal, "c/s": wire.ReasonLockHeld}
	for _, e := range negotiationSteps(t, col) {
		if e.Name != "mark" {
			continue
		}
		entity := attr(e, "entity")
		if ok, reason := attr(e, "ok"), wire.Reason(attr(e, "reason")); ok != "false" || reason != want[entity] {
			t.Errorf("mark %s: ok=%s reason=%q, want refused as %q", entity, ok, reason, want[entity])
		}
		delete(want, entity)
	}
	if len(want) > 0 {
		t.Fatalf("marks missing from the negotiation's span: %v", want)
	}
	snap := reg.Snapshot()
	for _, r := range []wire.Reason{wire.ReasonSlotPersonal, wire.ReasonLockHeld} {
		if e := snap.Find(metrics.LayerLinks, "refused", string(r), wire.CodeConflict); e == nil || e.Count != 1 {
			t.Errorf("refused %s counted %+v, want once", r, e)
		}
	}

	// A vote for a meeting a negotiation holds is refused at once.
	release, err := h.nodes["a"].Links.Hold(ctx, "meeting:M", links.HoldNegotiation)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	obj := listener.NewObject()
	obj.Handle("Vote", func(ctx context.Context, _ *listener.Call) (any, error) {
		release, err := h.nodes["a"].Links.Hold(ctx, "meeting:M", links.HoldVote)
		if err != nil {
			return nil, err
		}
		release()
		return true, nil
	})
	if err := h.nodes["a"].RegisterService(ctx, "vote.a", obj); err != nil {
		t.Fatal(err)
	}
	err = h.nodes["b"].Engine.Invoke(ctx, "vote.a", "Vote", nil, nil)
	if wire.CodeOf(err) != wire.CodeConflict || wire.ReasonOf(err) != wire.ReasonLockHeld {
		t.Fatalf("vote during a negotiation: %v, want conflict: lock-held", err)
	}
}
