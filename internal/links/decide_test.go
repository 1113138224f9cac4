package links_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Spec.Decide: arguments computed from the marked set once the
// constraint holds ride every Commit, the journal, the self-target path
// and the QueryOutcome answer, so each way a change can reach a
// participant applies the same thing. The "note" action records the
// "text" argument it was applied with.

// decideWho is a Decide that names the marked users.
func decideWho(marked []links.EntityRef) wire.Args {
	users := make([]string, len(marked))
	for i, r := range marked {
		users[i] = r.User
	}
	return wire.Args{wire.Str("text", "decided "+strings.Join(users, ","))}
}

func (n *tnode) notesNow() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.notes...)
}

func wantNotes(t *testing.T, n *tnode, want ...string) {
	t.Helper()
	if got := n.notesNow(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s applied %v, want %v", n.User, got, want)
	}
}

// markArgs records the inner args of every Mark request a node serves.
type markArgs struct {
	mu   sync.Mutex
	seen []wire.Args
}

func (m *markArgs) wrap(next transport.HandlerFunc) transport.HandlerFunc {
	return func(ctx context.Context, req *transport.Request) transport.Response {
		if req.Method == "Mark" {
			m.mu.Lock()
			m.seen = append(m.seen, req.Args.Sub("args"))
			m.mu.Unlock()
		}
		return next(ctx, req)
	}
}

// loseFirstAck lets a node apply its first Commit and then reports the
// request lost, as a dropped response would look to the coordinator.
func loseFirstAck() func(transport.HandlerFunc) transport.HandlerFunc {
	var once sync.Once
	return func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			resp := next(ctx, req)
			if req.Method == "Commit" && resp.OK {
				once.Do(func() { resp = transport.ErrorResponse(req, wire.CodeUnavailable, "injected: ack lost") })
			}
			return resp
		}
	}
}

// TestDecideArgsRideCommitNotMark: Apply sees the decision's arguments
// merged over the Mark-time ones — at remote targets and at a target on
// the coordinator's own node — while Mark frames carry the Mark-time
// arguments alone, and only the marked set is named.
func TestDecideArgsRideCommitNotMark(t *testing.T) {
	h := newHarness(t)
	marks := &markArgs{}
	h.addNode("a")
	for _, u := range []string{"b", "c", "d"} {
		h.addNode(u, func(c *core.Config) { c.Net = inboundNet{Network: c.Net, wrap: marks.wrap} })
	}
	// d cannot be marked: its entity lock is held.
	if _, ok := h.nodes["d"].Links.Locks.TryLock("s", "someone"); !ok {
		t.Fatal("lock d")
	}
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked"), wire.Str("keep", "k")},
		Targets: refs("a", "s", "b", "s", "c", "s", "d", "s"), Constraint: links.Or, K: 2,
		Decide: decideWho,
	})
	if err != nil || !res.OK {
		t.Fatalf("negotiate: %v %+v", err, res)
	}
	for _, u := range []string{"a", "b", "c"} {
		wantNotes(t, h.nodes[u], "s:decided a,b,c")
	}
	wantNotes(t, h.nodes["d"])
	for _, a := range marks.seen {
		if a.String("text") != "marked" || a.String("keep") != "k" || len(a) != 2 {
			t.Fatalf("Mark carried %v, want the Mark-time args alone", a)
		}
	}
	if len(marks.seen) != 3 {
		t.Fatalf("%d Mark requests, want 3", len(marks.seen))
	}
}

// TestDecideArgsWithoutJSONFormAbort: a decision argument the journal
// cannot encode (a NaN) aborts the negotiation everywhere, as any failed
// journal write does, instead of panicking the coordinator: nothing is
// applied, no journal row is left and every mark is released.
func TestDecideArgsWithoutJSONFormAbort(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	lm := h.nodes["a"].Links
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked")},
		Targets: refs("b", "s", "c", "s"), Constraint: links.And,
		Local:  &links.LocalChange{Entity: "s", Action: "note", Args: wire.Args{wire.Str("text", "local")}},
		Decide: func([]links.EntityRef) wire.Args { return wire.Args{wire.Float("score", math.NaN())} },
	})
	if err == nil || res.OK || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("negotiate: %v %+v, want the journal's encode error", err, res)
	}
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal rows left: %v", p)
	}
	for _, u := range []string{"a", "b", "c"} {
		wantNotes(t, h.nodes[u])
		if n, p := h.nodes[u].Links.Locks.Len(), h.nodes[u].Links.PendingMarks(); n != 0 || p != 0 {
			t.Fatalf("%s holds %d locks, %d pending marks", u, n, p)
		}
	}
}

// TestDecideArgsLostAckRedrive: the participant applies the Commit, the
// ack is lost, the sweeper re-sends from the journal. The re-sent Commit
// is acked as a duplicate: the decision's arguments were applied once.
func TestDecideArgsLostAckRedrive(t *testing.T) {
	h := newHarness(t, "a")
	h.addNode("b", func(c *core.Config) { c.Net = inboundNet{Network: c.Net, wrap: loseFirstAck()} })
	lm := h.nodes["a"].Links
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked")},
		Targets: refs("b", "s"), Constraint: links.And, Decide: decideWho,
	})
	if !links.IsInDoubt(err) || len(res.InDoubt) != 1 {
		t.Fatalf("err = %v, res = %+v, want b in doubt", err, res)
	}
	wantNotes(t, h.nodes["b"], "s:decided b")
	h.clk.Advance(time.Second)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	wantNotes(t, h.nodes["b"], "s:decided b")
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal not retired: %v", p)
	}
}

// TestDecideArgsSurviveCoordinatorRestart: the Commit never left the
// coordinator; a fresh manager over the same database redrives it from
// the journal with the decision's arguments, not the Mark-time ones.
func TestDecideArgsSurviveCoordinatorRestart(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(string, links.EntityRef) error {
		return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected crash"}
	})
	if _, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked")},
		Targets: refs("b", "s"), Constraint: links.And, Decide: decideWho,
	}); !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	wantNotes(t, h.nodes["b"])
	lm2, err := links.NewManager("a", h.nodes["a"].DB, h.nodes["a"].Engine, h.clk)
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Second)
	if n := lm2.RetryCommits(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	wantNotes(t, h.nodes["b"], "s:decided b")
}

// TestDecideArgsFromQueryOutcome: the coordinator stays silent after
// deciding COMMIT; the participant's own sweep asks, hears "commit" with
// the journaled arguments and applies those. The coordinator's late
// Commit is then a duplicate.
func TestDecideArgsFromQueryOutcome(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(string, links.EntityRef) error {
		return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected silence"}
	})
	if _, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "note", Args: wire.Args{wire.Str("text", "marked")},
		Targets: refs("b", "s"), Constraint: links.And, Decide: decideWho,
	}); !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if n := h.nodes["b"].Links.ResolvePendingMarks(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("resolved %d marks, want 1", n)
	}
	wantNotes(t, h.nodes["b"], "s:decided b")
	if n := h.nodes["b"].Links.Locks.Len(); n != 0 {
		t.Fatalf("%d locks left at b", n)
	}
	lm.SetCommitFault(nil)
	h.clk.Advance(time.Second)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	wantNotes(t, h.nodes["b"], "s:decided b")
}

// TestArgIntKeepsEveryDigit: an integer argument read back from the log
// is the integer that was written, not the float nearest it: from a
// journal record, from a link row's trigger, and on the participant that
// a Commit redriven from the journal reaches.
func TestArgIntKeepsEveryDigit(t *testing.T) {
	const n = 1<<62 + 1 // no float64 holds it
	h := newHarness(t, "a", "b")
	var applied []int64
	h.nodes["b"].Links.RegisterAction("digits", links.Action{
		Apply: func(_ *store.Tx, _ string, args wire.Args) error {
			applied = append(applied, args.Int64("n"))
			return nil
		},
	})
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(string, links.EntityRef) error {
		return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected crash"}
	})
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "digits", Args: wire.Args{wire.Int64("n", n)}, Targets: refs("b", "s"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if outcome, args := lm.Outcome(res.NID, ""); outcome != links.OutcomeCommit || args.Int64("n") != n {
		t.Fatalf("journal record: %s with n = %d, want commit with %d", outcome, args.Int64("n"), n)
	}
	lm2, err := links.NewManager("a", h.nodes["a"].DB, h.nodes["a"].Engine, h.clk)
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Second)
	if got := lm2.RetryCommits(ctxBg(), h.clk.Now()); got != 1 || len(applied) != 1 || applied[0] != n {
		t.Fatalf("redriven Commit: %d rows resolved, applied with n = %v, want 1 row and %d", got, applied, n)
	}

	l := &links.Link{
		ID: links.NewLinkID(), Type: links.Negotiation, Subtype: links.Permanent, Constraint: links.And,
		Owner: links.EntityRef{User: "a", Entity: "s"}, Targets: refs("b", "s"),
		Triggers: []links.Trigger{{Event: "change", Action: "digits", Args: wire.Args{wire.Int64("n", n)}}},
	}
	if err := lm.InstallAt(ctxBg(), "a", l); err != nil {
		t.Fatal(err)
	}
	if back, ok := lm.GetLink(l.ID); !ok || back.Triggers[0].Args.Int64("n") != n {
		t.Fatalf("trigger row: %+v, want n = %d", back, n)
	}
}
