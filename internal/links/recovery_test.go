package links_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestDuplicateCommitIdempotent: a re-delivered Commit (the first ack
// was lost) must acknowledge without applying the action a second time.
func TestDuplicateCommitIdempotent(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()

	var tok string // the token of the lock the Mark took
	err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "note"),
		wire.Sub("args", wire.Args{wire.Str("text", "hi")}),
		wire.Str("nid", "N-dup"),
	}, &tok)
	if err != nil {
		t.Fatal(err)
	}
	commit := wire.Args{
		wire.Str("entity", "s"),
		wire.Str("token", tok),
		wire.Str("action", "note"),
		wire.Sub("args", wire.Args{wire.Str("text", "hi")}),
		wire.Str("nid", "N-dup"),
	}
	if err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", commit, nil); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	// Same Commit again — e.g. the coordinator's sweeper re-sent it
	// because the first response was dropped.
	if err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", commit, nil); err != nil {
		t.Fatalf("duplicate commit not acked: %v", err)
	}
	if n := h.nodes["b"].noteCount(); n != 1 {
		t.Fatalf("action applied %d times, want 1", n)
	}
	// The mark is decided; nothing is left pending on the participant.
	if n := h.nodes["b"].Links.PendingMarks(); n != 0 {
		t.Fatalf("%d pending marks after decided commit", n)
	}
}

// unitCount counts the units a DB hands its logger.
type unitCount struct{ n atomic.Int64 }

func (c *unitCount) LogDDLTable(store.Schema) store.Ack   { return acked }
func (c *unitCount) LogDDLIndex(string, string) store.Ack { return acked }
func (c *unitCount) LogTx([]store.LoggedOp) store.Ack {
	c.n.Add(1)
	return acked
}

func acked() error { return nil }

// TestDuplicateDeleteLinkIdempotent: a re-delivered DeleteLink (the
// first answer was lost), and one for a link the receiver never held,
// answer OK, log nothing and owe nobody the cascade.
func TestDuplicateDeleteLinkIdempotent(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()
	if _, err := negotiateLink(h, "LX", "M1", refs("a", "slot9", "b", "slot9")); err != nil {
		t.Fatal(err)
	}
	b := h.nodes["b"]
	del := func(id string) error {
		return h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "DeleteLink",
			wire.Args{wire.Str("id", id), wire.Strs("visited", []string{"a"})}, nil)
	}
	if err := del("LX"); err != nil {
		t.Fatalf("first DeleteLink: %v", err)
	}
	if _, ok := b.Links.GetLink("LX"); ok {
		t.Fatal("the link survived its DeleteLink")
	}
	units := &unitCount{}
	b.DB.SetLogger(units)
	for _, id := range []string{"LX", "NEVER"} {
		if err := del(id); err != nil {
			t.Fatalf("DeleteLink of %s, which b does not hold: %v", id, err)
		}
	}
	if n := units.n.Load(); n != 0 {
		t.Fatalf("DeleteLinks of links b does not hold logged %d units", n)
	}
	if owed := b.Links.JournalPending(); len(owed) != 0 {
		t.Fatalf("b owes %v after DeleteLinks of links it does not hold", owed)
	}
}

// TestStaleTokenCommitRejected: a Commit whose mark TTL lapsed and
// whose lock was re-granted to another negotiation must be rejected —
// applying it would clobber the new holder's claim.
func TestStaleTokenCommitRejected(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()

	var tok string // the token of the lock the Mark took
	err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "OLD")}),
		wire.Str("nid", "N-old"),
	}, &tok)
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator stalls past the lock TTL; another negotiation
	// steals the lock and reserves the slot.
	h.clk.Advance(links.LockTTL + time.Second)
	if _, err := h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "NEW")},
		Targets: refs("b", "s"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("stealing negotiation failed: %v", err)
	}
	if got := h.nodes["b"].status("s"); got != "NEW" {
		t.Fatalf("slot = %q, want NEW", got)
	}
	// The stale Commit finally arrives. It must not apply.
	err = h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("token", tok),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "OLD")}),
		wire.Str("nid", "N-old"),
	}, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("stale commit err = %v, want conflict", err)
	}
	if got := h.nodes["b"].status("s"); got != "NEW" {
		t.Fatalf("stale commit clobbered slot: %q", got)
	}
}

// TestCoordinatorCrashRecovery: the coordinator commits to x, crashes
// before reaching y (injected fault), and restarts on the same device
// database. The journaled COMMIT decision survives the crash and the
// retry sweeper finishes the diverged negotiation.
func TestCoordinatorCrashRecovery(t *testing.T) {
	h := newHarness(t, "a", "x", "y")
	ctx := context.Background()
	lm := h.nodes["a"].Links

	// Crash model: every commit send to y fails as if the coordinator
	// lost connectivity mid-phase-2.
	lm.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "y" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected crash"}
		}
		return nil
	})
	res, err := lm.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("x", "s", "y", "s"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if res.OK || res.State != links.StateInDoubt {
		t.Fatalf("res.OK=%v state=%s, want !OK in-doubt", res.OK, res.State)
	}
	if len(res.Accepted) != 1 || res.Accepted[0].User != "x" {
		t.Fatalf("accepted = %v", res.Accepted)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].User != "y" {
		t.Fatalf("inDoubt = %v", res.InDoubt)
	}
	if h.nodes["x"].status("s") != "M" || h.nodes["y"].status("s") != "" {
		t.Fatalf("pre-crash state x=%q y=%q", h.nodes["x"].status("s"), h.nodes["y"].status("s"))
	}

	// "Restart": a fresh links manager over the same device database —
	// everything in memory is gone, only the store (and with -data-dir,
	// the WAL behind it) survives.
	lm2, err := links.NewManager("a", h.nodes["a"].DB, h.nodes["a"].Engine, h.clk)
	if err != nil {
		t.Fatal(err)
	}
	pending := lm2.JournalPending()
	if len(pending) != 1 || pending[0].ID != res.NID {
		t.Fatalf("journal after restart = %v, want [%s]", pending, res.NID)
	}
	// The periodic sweep on the restarted coordinator re-sends the
	// journaled Commit and drains the row.
	h.clk.Advance(time.Second)
	if n := lm2.RetryCommits(ctx, h.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	if got := h.nodes["y"].status("s"); got != "M" {
		t.Fatalf("y never committed after recovery: %q", got)
	}
	if p := lm2.JournalPending(); len(p) != 0 {
		t.Fatalf("journal not retired: %v", p)
	}
}

// TestSweepDuringPhase1DoesNotPresumeAbort: a participant fault sweep
// that lands between its Mark grant and the coordinator's journal
// write must hear "unknown" and keep the mark pinned. Presuming abort
// there (no journal row yet, but the negotiation is live) would
// release x's lock while the coordinator goes on to commit — the race
// the coordinator's in-flight registry exists to close.
func TestSweepDuringPhase1DoesNotPresumeAbort(t *testing.T) {
	h := newHarness(t, "x", "y")
	ctx := context.Background()

	// And-marks run in entity order, so x is marked before a's Mark to y
	// leaves — exactly the window before journalBegin.
	swept := false
	lm := h.addNode("a", func(c *core.Config) {
		c.Net = outboundNet{Network: c.Net, before: func(req *transport.Request) {
			if req.Method == "Mark" && req.Service == links.ServiceFor("y") && !swept {
				swept = true
				h.nodes["x"].Links.ResolvePendingMarks(ctx, h.clk.Now())
				if n := h.nodes["x"].Links.PendingMarks(); n != 1 {
					t.Errorf("mid-phase-1 sweep resolved x's mark: pending = %d, want 1", n)
				}
			}
		}}
	}).Links
	res, err := lm.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("x", "s", "y", "s"), Constraint: links.And,
	})
	if err != nil || !res.OK {
		t.Fatalf("negotiate after mid-flight sweep: err=%v res=%+v", err, res)
	}
	if !swept {
		t.Fatal("a's Mark to y never left")
	}
	if sx, sy := h.nodes["x"].status("s"), h.nodes["y"].status("s"); sx != "M" || sy != "M" {
		t.Fatalf("commit diverged after mid-flight sweep: x=%q y=%q", sx, sy)
	}
}

// TestDecidedOutcomeSurvivesRestart: a participant applies a Commit,
// the ack is lost, and the participant crashes before the coordinator
// re-sends. After a restart over the same device database the re-sent
// Commit must still be acked as a duplicate from the durable decided
// table — not re-applied through the late-commit path.
func TestDecidedOutcomeSurvivesRestart(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()

	var tok string // the token of the lock the Mark took
	err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "note"),
		wire.Sub("args", wire.Args{wire.Str("text", "hi")}),
		wire.Str("nid", "N-restart"),
	}, &tok)
	if err != nil {
		t.Fatal(err)
	}
	commit := wire.Args{
		wire.Str("entity", "s"),
		wire.Str("token", tok),
		wire.Str("action", "note"),
		wire.Sub("args", wire.Args{wire.Str("text", "hi")}),
		wire.Str("nid", "N-restart"),
	}
	if err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", commit, nil); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if n := h.nodes["b"].noteCount(); n != 1 {
		t.Fatalf("action applied %d times, want 1", n)
	}

	// The participant crashes and restarts: in-memory decided cache and
	// pending marks are gone, the store survives.
	lm2, err := links.NewManager("b", h.nodes["b"].DB, h.nodes["b"].Engine, h.clk)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	lm2.RegisterAction("note", links.Action{
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			applied++
			return nil
		},
	})
	h.nodes["b"].Listener.Register(links.ServiceFor("b"), lm2.Object())

	// The coordinator's sweeper re-sends the Commit whose ack was lost.
	if err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", commit, nil); err != nil {
		t.Fatalf("re-sent commit after restart not acked: %v", err)
	}
	if applied != 0 {
		t.Fatalf("re-sent commit re-applied the action %d times after restart", applied)
	}
}

// TestInDoubtDoesNotMaskVeto: when one negotiation link ends in doubt
// (recoverable — the journal sweeper is re-driving it) and another is
// definitively vetoed, TriggerEntity must surface the veto. Reporting
// the in-doubt error instead would tell the caller "you may proceed"
// while a link categorically refused the change.
func TestInDoubtDoesNotMaskVeto(t *testing.T) {
	h := newHarness(t, "a", "x", "y")
	ctx := context.Background()
	lm := h.nodes["a"].Links
	h.nodes["y"].setStatus("s", "BUSY")

	l1 := newLink("L-indoubt", links.Negotiation, links.Permanent,
		links.EntityRef{User: "a", Entity: "e"}, refs("x", "s"))
	l1.Priority = 2
	l1.Triggers = []links.Trigger{{Event: "change", Action: "reserve", Args: wire.Args{wire.Str("meeting", "T1")}}}
	l2 := newLink("L-veto", links.Negotiation, links.Permanent,
		links.EntityRef{User: "a", Entity: "e"}, refs("y", "s"))
	l2.Priority = 1
	l2.Triggers = []links.Trigger{{Event: "change", Action: "reserve", Args: wire.Args{wire.Str("meeting", "T2")}}}
	if err := lm.InstallAt(context.Background(), lm.Self(), l1); err != nil {
		t.Fatal(err)
	}
	if err := lm.InstallAt(context.Background(), lm.Self(), l2); err != nil {
		t.Fatal(err)
	}

	// L-indoubt (fires first: higher priority) diverges in phase 2;
	// L-veto is definitively rejected at its busy target.
	lm.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "x" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected loss"}
		}
		return nil
	})
	_, err := lm.TriggerEntity(ctx, "e", "change", nil)
	if err == nil {
		t.Fatal("vetoed trigger returned no error")
	}
	if links.IsInDoubt(err) {
		t.Fatalf("in-doubt error masked the veto: %v", err)
	}
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v, want conflict veto", err)
	}
}

// TestQueryOutcomePresumedAbort: a participant whose coordinator dies
// after Mark pins the lock while in doubt, then presumes abort once
// the coordinator stays unreachable past presumeAbortAfter — and a
// Commit arriving after the presumed abort is rejected.
func TestQueryOutcomePresumedAbort(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()

	var tok string // the token of the lock the Mark took
	err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "GHOST")}),
		wire.Str("nid", "N-ghost"),
	}, &tok)
	if err != nil {
		t.Fatal(err)
	}
	if n := h.nodes["b"].Links.PendingMarks(); n != 1 {
		t.Fatalf("pending marks = %d, want 1", n)
	}
	// The coordinator dies without a journaled commit.
	h.net.SetDown("node-a", true)

	// The coordinator is unreachable, so each sweep waits out its
	// in-attempt retry backoff on the clock.
	sweep := func() {
		now := h.clk.Now()
		h.releasingBackoffs(links.RetryBase/8, func() { h.nodes["b"].Links.ResolvePendingMarks(ctx, now) })
	}

	// Inside the horizon the mark stays pinned: the sweep keeps the
	// lock alive (even across the nominal TTL) and resolves nothing.
	h.clk.Advance(30 * time.Second)
	sweep()
	if n := h.nodes["b"].Links.PendingMarks(); n != 1 {
		t.Fatalf("mark resolved inside horizon: pending = %d", n)
	}
	if _, err := h.nodes["b"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "OTHER")},
		Targets: refs("b", "s"), Constraint: links.And,
	}); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("pinned lock not respected: %v", err)
	}

	// Past the horizon: presume abort, release the lock.
	h.clk.Advance(links.PresumeAbortAfter)
	sweep()
	if n := h.nodes["b"].Links.PendingMarks(); n != 0 {
		t.Fatalf("mark not resolved past horizon: pending = %d", n)
	}
	if got := h.nodes["b"].status("s"); got != "" {
		t.Fatalf("presumed abort applied the change: %q", got)
	}

	// The ghost coordinator returns and re-sends its Commit: too late —
	// the presumed abort is sticky.
	h.net.SetDown("node-a", false)
	err = h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Commit", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("token", tok),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "GHOST")}),
		wire.Str("nid", "N-ghost"),
	}, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("post-abort commit err = %v, want conflict", err)
	}
	// The slot is free for a fresh negotiation.
	if _, err := h.nodes["b"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "FRESH")},
		Targets: refs("b", "s"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("slot still wedged after presumed abort: %v", err)
	}
}

// TestPresumeAbortOutlastsRedrive: a participant cut off from its
// coordinator keeps its mark until the coordinator's last redrive has had
// its chance. Both devices sweep every 30 s, as sydnode does, and a
// journal row is redriven at most once per sweep, so the coordinator's
// rounds span five and a half minutes, not the sum of their backoffs.
// The participant sweeps just before each of the coordinator's sweeps,
// so it is the first to see any horizon pass. The network heals at 5:10;
// the next redrive must land, and the participant must hold the change.
func TestPresumeAbortOutlastsRedrive(t *testing.T) {
	h := newHarness(t, "a", "x")
	ctx := context.Background()
	a, x := h.nodes["a"], h.nodes["x"]
	reg := metrics.NewRegistry()
	a.Links.SetMetrics(reg)

	// x's Mark is granted; the network between a and x fails before
	// a's Commit reaches x.
	var cut atomic.Bool
	a.Links.SetCommitFault(func(_ string, ref links.EntityRef) error {
		if ref.User == "x" && cut.CompareAndSwap(false, true) {
			// The sim keys a partition by caller name and address.
			h.net.Partition("a", "node-x")
			h.net.Partition("x", "node-a")
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: cut"}
		}
		return nil
	})
	_, err := a.Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("x", "s"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}

	start := h.clk.Now()
	healAt := start.Add(5*time.Minute + 10*time.Second)
	healed := false
	sweepAt := func(n *tnode, d time.Duration) {
		h.clk.Advance(start.Add(d).Sub(h.clk.Now()))
		if !healed && !h.clk.Now().Before(healAt) {
			h.net.Heal("a", "node-x")
			h.net.Heal("x", "node-a")
			healed = true
		}
		now := h.clk.Now()
		h.releasingBackoffs(links.RetryBase/8, func() { n.Links.FaultSweep(ctx, now) })
	}
	for k := time.Duration(0); k < 30 && len(a.Links.JournalPending()) > 0; k++ {
		sweepAt(x, 30*time.Second*k+time.Second)
		sweepAt(a, 30*time.Second*k+29*time.Second)
	}
	if p := a.Links.JournalPending(); len(p) != 0 {
		t.Fatalf("journal still holds %v", p)
	}
	snap := reg.Snapshot()
	if e := snap.Find(metrics.LayerLinks, "negotiate", "outcome", wire.CodeConflict); e != nil {
		t.Fatalf("the row retired with a Failed target (%d): the participant presumed abort first", e.Count)
	}
	if e := snap.Find(metrics.LayerLinks, "negotiate", "outcome-recovered", wire.CodeOK); e == nil || e.Count != 1 {
		t.Fatalf("outcome-recovered = %+v, want 1", e)
	}
	if got := x.status("s"); got != "M" {
		t.Fatalf("x/s = %q, want M", got)
	}
	sweepAt(x, h.clk.Now().Sub(start)+30*time.Second)
	if n := x.Links.PendingMarks(); n != 0 {
		t.Fatalf("x still holds %d pending marks", n)
	}
}
