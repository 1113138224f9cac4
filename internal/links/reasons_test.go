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
// the reasons of their mark events on the links.Negotiate span, the first
// of them as the negotiation's, each failed mark counted once in the
// coordinator's registry. The two are an Or with k = 2, which marks. The
// lock table's refusal of a vote (LockTable.Hold) reaches the voter as
// lock-held too.
func TestRefusalReasonsCrossTheWire(t *testing.T) {
	h, col, reg := refusalHarness(t)
	ctx := context.Background()
	res, err := h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "book", Targets: refs("b", "s", "c", "s"), Constraint: links.Or, K: 2,
	})
	wantRefusals(t, col, reg, "mark", res, err)

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

// TestRefusalReasonsCrossTheWireOnePhase: the same refusals when the Or
// has k = 1 and so sends no Mark: b's Check and c's lock (the one-phase
// Commit's TryLock) refuse the Commit itself, and reach the coordinator
// with the same reasons as change events.
func TestRefusalReasonsCrossTheWireOnePhase(t *testing.T) {
	h, col, reg := refusalHarness(t)
	res, err := h.nodes["a"].Links.Negotiate(context.Background(), links.Spec{
		Action: "book", Targets: refs("b", "s", "c", "s"), Constraint: links.Or,
	})
	wantRefusals(t, col, reg, "change", res, err)
	if p := h.nodes["a"].Links.JournalPending(); len(p) != 0 {
		t.Fatalf("journal after two refusals: %v", p)
	}
}

// refusalHarness is a traced a, b and c, with a counting into the
// registry it returns: b's "book" refuses as slot-personal, and c's slot
// is marked by another negotiation.
func refusalHarness(t *testing.T) (*harness, *trace.Collector, *metrics.Registry) {
	col := trace.NewCollector()
	h := newTracedHarness(t, col, 1, "a", "b", "c")
	reg := metrics.NewRegistry()
	h.nodes["a"].Links.SetMetrics(reg)
	h.nodes["b"].Links.RegisterAction("book", links.Action{Check: func(entity string, _ wire.Args) error {
		return wire.Refuse(wire.ReasonSlotPersonal, "b/%s holds personal:class", entity)
	}})
	h.nodes["c"].Links.RegisterAction("book", links.Action{})
	if err := h.nodes["b"].Engine.Invoke(context.Background(), links.ServiceFor("c"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "book"),
		wire.Str("nid", "N-other"),
	}, nil); err != nil {
		t.Fatal(err)
	}
	return h, col, reg
}

// wantRefusals holds a failed negotiation to b's slot-personal and c's
// lock-held: as its reason (b's, the first), as the reasons of its span's
// phase events, and as one count each in reg.
func wantRefusals(t *testing.T, col *trace.Collector, reg *metrics.Registry, phase string, res *links.Result, err error) {
	t.Helper()
	if err == nil || res.OK {
		t.Fatalf("negotiation succeeded: %+v", res)
	}
	if got := wire.ReasonOf(err); got != wire.ReasonSlotPersonal {
		t.Fatalf("negotiation reason = %q (%v), want the first refused target's", got, err)
	}
	want := map[string]wire.Reason{"b/s": wire.ReasonSlotPersonal, "c/s": wire.ReasonLockHeld}
	for _, e := range negotiationSteps(t, col) {
		if e.Name != phase {
			continue
		}
		entity := attr(e, "entity")
		if ok, reason := attr(e, "ok"), wire.Reason(attr(e, "reason")); ok != "false" || reason != want[entity] {
			t.Errorf("%s %s: ok=%s reason=%q, want refused as %q", phase, entity, ok, reason, want[entity])
		}
		delete(want, entity)
	}
	if len(want) > 0 {
		t.Fatalf("%s events missing from the negotiation's span: %v", phase, want)
	}
	snap := reg.Snapshot()
	for _, r := range []wire.Reason{wire.ReasonSlotPersonal, wire.ReasonLockHeld} {
		if e := snap.Find(metrics.LayerLinks, "refused", string(r), wire.CodeConflict); e == nil || e.Count != 1 {
			t.Errorf("refused %s counted %+v, want once", r, e)
		}
	}
}
