package links_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestNegotiationRecoversAfterLoss: on a lossy network negotiations
// may fail or end in doubt, but after the loss clears and the fault
// sweeps run, every negotiation must have resolved all-or-none — the
// two targets always agree on the slot holder — and a fresh
// negotiation succeeds (locks expire or resolve rather than wedging
// entities forever).
func TestNegotiationRecoversAfterLoss(t *testing.T) {
	// Build the world on a loss-free network first, then flip the
	// loss on only for the chaos phase — harness setup itself must
	// not be disturbed.
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, net: net, clk: clk, nodes: map[string]*tnode{}}
	for _, u := range []string{"a", "x", "y"} {
		h.addNode(u)
	}
	ctx := context.Background()
	// drain heals the network and runs the periodic fault sweeps (with
	// the clock advancing past each retry backoff) until every journal
	// row and pending mark is resolved.
	drain := func(round int) {
		h.net.SetLoss(0)
		for i := 0; i < 40; i++ {
			h.clk.Advance(time.Second)
			settled := true
			for _, n := range h.nodes {
				n.Links.FaultSweep(ctx, h.clk.Now())
				if len(n.Links.JournalPending()) > 0 || n.Links.PendingMarks() > 0 {
					settled = false
				}
			}
			if settled {
				return
			}
		}
		t.Fatalf("round %d: journals/marks did not drain", round)
	}

	rng := rand.New(rand.NewSource(99))
	failures := 0
	for i := 0; i < 40; i++ {
		// Runtime-mutable loss: each round picks a fresh drop rate.
		h.net.SetLoss(0.2 + 0.5*rng.Float64())
		_, err := h.nodes["a"].Links.Negotiate(context.Background(), links.Spec{
			Action:     "reserve",
			Args:       wire.Args{wire.Str("meeting", fmt.Sprintf("chaos-%d", i))},
			Targets:    refs("x", "s", "y", "s"),
			Constraint: links.And,
		})
		if err != nil {
			failures++
		}
		drain(i)
		// Consistency: once drained, x and y must agree on the holder.
		if h.nodes["x"].status("s") != h.nodes["y"].status("s") {
			t.Fatalf("round %d: split brain x=%q y=%q", i, h.nodes["x"].status("s"), h.nodes["y"].status("s"))
		}
		// Reset for the next round.
		h.nodes["x"].setStatus("s", "")
		h.nodes["y"].setStatus("s", "")
		// Expire any stranded locks.
		h.clk.Advance(links.LockTTL + time.Second)
	}
	if failures == 0 {
		t.Fatal("chaos produced no failures — the test is not exercising anything")
	}
	// Healed network: negotiation succeeds immediately.
	if _, err := h.nodes["a"].Links.Negotiate(context.Background(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "final")},
		Targets:    refs("x", "s", "y", "s"),
		Constraint: links.And,
	}); err != nil {
		t.Fatalf("post-chaos negotiation failed: %v", err)
	}
}

// TestStrandedLockExpires: a negotiator that marked an entity and then
// died must not wedge it forever — the lock TTL frees it.
func TestStrandedLockExpires(t *testing.T) {
	h := newHarness(t, "a", "b")
	ctx := context.Background()
	// "a" marks b's entity remotely and then crashes (never commits).
	err := h.nodes["a"].Engine.Invoke(ctx, links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "s"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "DEAD")}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A new negotiation against the same entity fails while the lock
	// is live...
	_, err = h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M2")},
		Targets: refs("b", "s"), Constraint: links.And,
	})
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("live lock not respected: %v", err)
	}
	// ...and succeeds after the TTL.
	h.clk.Advance(links.LockTTL + time.Second)
	if _, err := h.nodes["a"].Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M2")},
		Targets: refs("b", "s"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("expired lock not stolen: %v", err)
	}
	if h.nodes["b"].status("s") != "M2" {
		t.Fatalf("b status = %q", h.nodes["b"].status("s"))
	}
}

// wantOwed holds what lm's outbox owes to want, in id order.
func wantOwed(t *testing.T, lm *links.Manager, want ...links.Owed) {
	t.Helper()
	if got := lm.JournalPending(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("owed = %+v, want %+v", got, want)
	}
}

// TestCascadeDeleteToleratesDownNode: the §4.4 cascade skips
// unreachable participants (their device may be off) instead of
// failing; the local deletion still happens, and the outbox sweep
// delivers the delete once the node returns.
func TestCascadeDeleteToleratesDownNode(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	ctx := context.Background()
	installEverywhere(t, h, "LD", refs("a", "s", "b", "s", "c", "s"))
	h.net.SetDown("node-c", true)
	lm := h.nodes["a"].Links
	if err := lm.DeleteLink(ctx, "LD", nil); err != nil {
		t.Fatalf("cascade with down node errored: %v", err)
	}
	if _, ok := h.nodes["a"].Links.GetLink("LD"); ok {
		t.Fatal("a's row survived")
	}
	if _, ok := h.nodes["b"].Links.GetLink("LD"); ok {
		t.Fatal("b's row survived")
	}
	// c was unreachable; its row remains until it reconnects.
	if _, ok := h.nodes["c"].Links.GetLink("LD"); !ok {
		t.Fatal("c's row vanished while down?")
	}
	// The unreachable participant is still owed the deletion.
	owedC := links.Owed{Kind: "delete", ID: "LD", Peers: []string{"c"}}
	wantOwed(t, lm, owedC)
	// While c is still down, a sweep changes nothing.
	h.clk.Advance(links.RetryCap)
	if n := lm.RetryCommits(ctx, h.clk.Now()); n != 0 {
		t.Fatalf("sweep against down node resolved %d rows", n)
	}
	wantOwed(t, lm, owedC)
	h.net.SetDown("node-c", false)
	// The next sweep reaches c.
	h.clk.Advance(links.RetryCap)
	if n := lm.RetryCommits(ctx, h.clk.Now()); n != 1 {
		t.Fatalf("sweep resolved %d rows, want 1", n)
	}
	if _, ok := h.nodes["c"].Links.GetLink("LD"); ok {
		t.Fatal("c's row survived the sweep")
	}
	wantOwed(t, lm)
}

// TestCascadeDeleteTombstonesClosedTCPNode is the cascade over real
// sockets, where a participant whose node has closed does not answer
// CodeUnavailable: its refused connection reaches the links manager as
// transport.ErrUnreachable, wrapped by the engine. That is as transient
// as the sim's answer. The outbox keeps owing the participant the
// deletion, and the sweep keeps the row while the node stays down.
func TestCascadeDeleteTombstonesClosedTCPNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	tcp := transport.NewTCP()
	t.Cleanup(func() { tcp.Close() })
	dirLn, err := tcp.Listen("127.0.0.1:0", directory.NewServer(directory.WithTTL(time.Hour)).Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dirLn.Close() })
	h := &harness{t: t, clk: clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC)), nodes: map[string]*tnode{}}
	for _, u := range []string{"a", "b", "c"} {
		n := h.addNode(u, func(c *core.Config) { c.Net, c.DirAddr, c.ListenAddr = tcp, dirLn.Addr(), "127.0.0.1:0" })
		t.Cleanup(func() { n.Close(context.Background()) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	installEverywhere(t, h, "LD", refs("a", "s", "b", "s", "c", "s"))
	if err := h.nodes["c"].Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.nodes["a"].Links.DeleteLink(ctx, "LD", nil); err != nil {
		t.Fatalf("cascade with a closed node errored: %v", err)
	}
	if _, ok := h.nodes["b"].Links.GetLink("LD"); ok {
		t.Fatal("b's row survived")
	}
	owedC := links.Owed{Kind: "delete", ID: "LD", Peers: []string{"c"}}
	wantOwed(t, h.nodes["a"].Links, owedC)
	h.clk.Advance(links.RetryCap)
	if n := h.nodes["a"].Links.RetryCommits(ctx, h.clk.Now()); n != 0 {
		t.Fatalf("sweep against the closed node resolved %d rows", n)
	}
	wantOwed(t, h.nodes["a"].Links, owedC)
}

// TestPromotionPropertyHighestGroupWins: for random waiting-link
// populations, deleting the blocker promotes exactly the links of the
// highest-priority group (ties by row id), and every loser is
// re-pointed at a promoted link.
func TestPromotionPropertyHighestGroupWins(t *testing.T) {
	f := func(prioSeeds []uint8) bool {
		if len(prioSeeds) == 0 || len(prioSeeds) > 12 {
			return true // trivially pass out-of-range shapes
		}
		h := newHarness(t, "a", "b")
		lm := h.nodes["a"].Links
		owner := links.EntityRef{User: "a", Entity: "s"}
		if err := lm.InstallAt(context.Background(), lm.Self(), newLink("BLOCK", links.Negotiation, links.Permanent, owner, refs("b", "s"))); err != nil {
			return false
		}
		bestPrio := -1
		for i, ps := range prioSeeds {
			prio := int(ps % 8)
			if prio > bestPrio {
				bestPrio = prio
			}
			l := newLink(fmt.Sprintf("W%02d", i), links.Negotiation, links.Tentative, owner, refs("b", "s2"))
			l.WaitingOn = "BLOCK"
			l.Priority = prio
			l.Group = fmt.Sprintf("G%d", prio) // group == priority class
			if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
				return false
			}
		}
		if err := lm.DeleteLink(context.Background(), "BLOCK", nil); err != nil {
			return false
		}
		// Exactly the links of the best priority group are permanent now;
		// the losers remain tentative and wait on one of them.
		promotedIDs := map[string]bool{}
		for _, l := range lm.AllLinks() {
			if l.Subtype == links.Permanent {
				promotedIDs[l.ID] = true
			}
		}
		for i, ps := range prioSeeds {
			id := fmt.Sprintf("W%02d", i)
			l, ok := lm.GetLink(id)
			if !ok {
				return false
			}
			if int(ps%8) == bestPrio {
				if l.Subtype != links.Permanent {
					return false
				}
				continue
			}
			if l.Subtype != links.Tentative || !promotedIDs[l.WaitingOn] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiationAtomicityProperty: for random availability patterns,
// an and-negotiation either changes every target or none.
func TestNegotiationAtomicityProperty(t *testing.T) {
	f := func(busyMask uint8) bool {
		h := newHarness(t, "a", "t0", "t1", "t2")
		targets := []string{"t0", "t1", "t2"}
		for i, u := range targets {
			if busyMask&(1<<i) != 0 {
				h.nodes[u].setStatus("s", "BUSY")
			}
		}
		_, err := h.nodes["a"].Links.Negotiate(context.Background(), links.Spec{
			Action:     "reserve",
			Args:       wire.Args{wire.Str("meeting", "ATOMIC")},
			Targets:    refs("t0", "s", "t1", "s", "t2", "s"),
			Constraint: links.And,
		})
		allFree := busyMask&0b111 == 0
		if allFree != (err == nil) {
			return false
		}
		for i, u := range targets {
			want := ""
			if busyMask&(1<<i) != 0 {
				want = "BUSY"
			} else if allFree {
				want = "ATOMIC"
			}
			if h.nodes[u].status("s") != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredMeetingLinksCascade: a calendar meeting created with an
// expiry is dissolved everywhere by the periodic sweep (§4.2 op 6),
// exercising expiry through the full application stack.
func TestExpiredMeetingLinksCascade(t *testing.T) {
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(24*time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cals := map[string]*calendar.Calendar{}
	for _, u := range []string{"a", "b"} {
		n, err := core.Start(ctx, core.Config{User: u, Net: net, DirAddr: "dir", Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		c, err := calendar.New(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		cals[u] = c
	}
	m, err := cals["a"].SetupMeeting(ctx, calendar.Request{
		Title: "ephemeral", Day: "2003-04-22", Hour: 10, PinSlot: true,
		Must:    []string{"b"},
		Expires: clk.Now().Add(2 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Hour)
	expired := cals["a"].Links().ExpireSweep(ctx, clk.Now())
	if len(expired) != 1 || expired[0] != m.LinkID {
		t.Fatalf("expired = %v", expired)
	}
	for u, c := range cals {
		if got := c.Slot(calendar.Slot{Day: "2003-04-22", Hour: 10}).Meeting; got != "" {
			t.Fatalf("%s slot still %q after expiry", u, got)
		}
		if _, ok := c.Links().GetLink(m.LinkID); ok {
			t.Fatalf("%s link survived expiry", u)
		}
	}
	got, _ := cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusCancelled {
		t.Fatalf("meeting = %s", got.Status)
	}
}
