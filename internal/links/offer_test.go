package links_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// voteBox is the application of a waiter's target in these tests: a
// "meetings.<user>" service whose Freed method is what the waiters' vote
// triggers call. It counts the votes and takes each one (a negotiation
// over the voter alone, under the vote's token and id) unless decline is
// set, in which case it answers a conflict.
type voteBox struct {
	mu      sync.Mutex
	votes   []wire.Args
	decline bool
}

func (h *harness) addVoteBox(user string) *voteBox {
	h.t.Helper()
	box := &voteBox{}
	lm := h.nodes[user].Links
	obj := listener.NewObject().Handle("Freed", func(ctx context.Context, call *listener.Call) (any, error) {
		box.mu.Lock()
		box.votes = append(box.votes, call.Args)
		decline := box.decline
		box.mu.Unlock()
		if decline {
			return nil, &wire.RemoteError{Code: wire.CodeConflict, Msg: "no use for it"}
		}
		_, err := lm.Negotiate(ctx, links.Spec{
			Action: "reserve", Args: wire.Args{wire.Str("meeting", call.Args.String("meeting"))}, Constraint: links.And,
			Vote: &links.Vote{
				Ref:   links.EntityRef{User: call.Args.String("source"), Entity: call.Args.String("targetEntity")},
				Token: call.Args.String("token"), NID: call.Args.String("nid"),
			},
		})
		return true, err
	})
	if err := h.nodes[user].RegisterService(ctxBg(), "meetings."+user, obj); err != nil {
		h.t.Fatal(err)
	}
	return box
}

func (b *voteBox) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.votes)
}

// queueVoter queues at owner a tentative link of meeting for target that
// votes when owner's entity comes free.
func (h *harness) queueVoter(id string, owner links.EntityRef, target, meeting string, prio int, waitingOn string) {
	h.t.Helper()
	l := newLink(id, links.Negotiation, links.Tentative, owner, refs(target, owner.Entity))
	l.Priority, l.WaitingOn, l.Group = prio, waitingOn, meeting
	l.Triggers = []links.Trigger{{
		Event: "avail", Action: "reserve", Service: "meetings.%s", Method: "Freed",
		Args: wire.Args{wire.Str("meeting", meeting)},
	}}
	lm := h.nodes[owner.User].Links
	if err := lm.InstallAt(ctxBg(), lm.Self(), l); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) wantQuiet(users ...string) {
	h.t.Helper()
	for _, u := range users {
		lm := h.nodes[u].Links
		if n, p := lm.Locks.Len(), lm.PendingMarks(); n != 0 || p != 0 {
			h.t.Errorf("%s: %d locks, %d pending marks left", u, n, p)
		}
		if j := lm.JournalPending(); len(j) != 0 {
			h.t.Errorf("%s: journal rows left: %v", u, j)
		}
	}
}

// TestDeletionVotesForItsWaiter: the link that holds u's slot goes, and
// the waiter queued behind it is not converted there and then: the slot
// is locked for it and its target hears so, commits, and the slot is the
// waiter's meeting's. One vote, no Mark.
func TestDeletionVotesForItsWaiter(t *testing.T) {
	h := newHarness(t, "u", "a", "b")
	u, slot := h.nodes["u"], links.EntityRef{User: "u", Entity: "slot9"}
	box := h.addVoteBox("a")
	u.setStatus("slot9", "MB")
	u.Links.SetEventHook(func(_ *store.Tx, kind string, l *links.Link, _ wire.Args) error {
		if kind == "delete" && l.ID == "LB" {
			u.setStatus("slot9", "")
		}
		return nil
	})
	if err := u.Links.InstallAt(ctxBg(), "u", newLink("LB", links.Negotiation, links.Permanent, slot, refs("b", "slot9"))); err != nil {
		t.Fatal(err)
	}
	h.queueVoter("LA", slot, "a", "MA", 0, "LB")

	if err := u.Links.DeleteLink(ctxBg(), "LB", []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if box.count() != 1 || box.votes[0].String("token") == "" || box.votes[0].String("nid") == "" {
		t.Fatalf("a heard %v, want one vote with a token and a negotiation id", box.votes)
	}
	if got := u.status("slot9"); got != "MA" {
		t.Fatalf("u's slot = %q, want the waiter's meeting", got)
	}
	h.wantQuiet("u", "a")
}

// TestAbortedMarkOffersTheFreedSlot: a negotiation holds u's slot lock
// when the link that holds the slot is deleted, so the deletion can vote
// for nobody. When that negotiation aborts, its Abort wakes the waiter —
// and does not offer the slot back to the coordinator that let go.
func TestAbortedMarkOffersTheFreedSlot(t *testing.T) {
	// c renegotiates MB over u and x, and is held between the two marks.
	atX, release := make(chan struct{}), make(chan struct{})
	h := newHarness(t, "u", "a", "b", "x")
	cm := h.addNode("c", func(c *core.Config) {
		c.Net = outboundNet{Network: c.Net, before: func(req *transport.Request) {
			if req.Method == "Mark" && req.Service == links.ServiceFor("x") {
				close(atX)
				<-release
			}
		}}
	}).Links
	u, slot := h.nodes["u"], links.EntityRef{User: "u", Entity: "slot9"}
	boxA, boxC := h.addVoteBox("a"), h.addVoteBox("c")
	u.setStatus("slot9", "MB")
	h.nodes["x"].setStatus("slot9", "OTHER")
	u.Links.SetEventHook(func(_ *store.Tx, kind string, l *links.Link, _ wire.Args) error {
		if kind == "delete" && l.ID == "LB" {
			u.setStatus("slot9", "")
		}
		return nil
	})
	if err := u.Links.InstallAt(ctxBg(), "u", newLink("LB", links.Negotiation, links.Permanent, slot, refs("b", "slot9"))); err != nil {
		t.Fatal(err)
	}
	h.queueVoter("LA", slot, "a", "MA", 1, "LB")
	h.queueVoter("LC", slot, "c", "MC", 9, "LB") // the better waiter, but c is who lets go

	done := make(chan error, 1)
	go func() {
		_, err := cm.Negotiate(ctxBg(), links.Spec{
			Action: "reserve", Args: wire.Args{wire.Str("meeting", "MB")}, Targets: refs("u", "slot9", "x", "slot9"), Constraint: links.And,
		})
		done <- err
	}()
	<-atX

	if err := u.Links.DeleteLink(ctxBg(), "LB", []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if n := boxA.count() + boxC.count(); n != 0 || u.status("slot9") != "" {
		t.Fatalf("with the slot's lock held elsewhere: %d votes, slot %q; want none and a free slot", n, u.status("slot9"))
	}
	for _, id := range []string{"LA", "LC"} {
		if l, ok := u.Links.GetLink(id); !ok || l.Subtype != links.Tentative {
			t.Fatalf("%s = %+v, want it still queued", id, l)
		}
	}

	close(release)
	if err := <-done; wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("c's negotiation: %v, want the constraint to fail on x", err)
	}
	if boxA.count() != 1 || boxC.count() != 0 {
		t.Fatalf("after the abort a heard %d votes and c %d, want 1 and 0", boxA.count(), boxC.count())
	}
	if got := u.status("slot9"); got != "MA" {
		t.Fatalf("u's slot = %q, want MA", got)
	}
	h.wantQuiet("u", "a", "c")
}

// TestDeclinedVoteGoesToTheNextWaiter: the best waiter's target has no
// use for the slot; its answer is the Abort, and the next-best waiter is
// offered the slot in the same step.
func TestDeclinedVoteGoesToTheNextWaiter(t *testing.T) {
	h := newHarness(t, "u", "a", "d")
	u, slot := h.nodes["u"], links.EntityRef{User: "u", Entity: "slot9"}
	boxA, boxD := h.addVoteBox("a"), h.addVoteBox("d")
	boxA.decline = true
	h.queueVoter("LA", slot, "a", "MA", 5, "")
	h.queueVoter("LD", slot, "d", "MD", 1, "")

	u.Links.Offer(ctxBg(), "slot9")
	if boxA.count() != 1 || boxD.count() != 1 {
		t.Fatalf("a heard %d votes and d %d, want one each", boxA.count(), boxD.count())
	}
	if got := u.status("slot9"); got != "MD" {
		t.Fatalf("u's slot = %q, want MD", got)
	}
	h.wantQuiet("u", "a", "d")
}

// TestUndeliverableVoteOnlyLetsGo: the best waiter's target cannot be
// reached. The mark is let go, the link stays queued as it was, nobody
// else is offered the slot in its place and nothing is retried: the next
// release of the slot makes the next offer.
func TestUndeliverableVoteOnlyLetsGo(t *testing.T) {
	h := newHarness(t, "u", "a", "d")
	u, slot := h.nodes["u"], links.EntityRef{User: "u", Entity: "slot9"}
	boxA, boxD := h.addVoteBox("a"), h.addVoteBox("d")
	h.queueVoter("LA", slot, "a", "MA", 5, "")
	h.queueVoter("LD", slot, "d", "MD", 1, "")

	h.net.SetDown("node-a", true)
	h.net.ResetStats()
	u.Links.Offer(ctxBg(), "slot9")
	if boxA.count() != 0 || boxD.count() != 0 || u.status("slot9") != "" {
		t.Fatalf("a heard %d votes, d %d, slot %q; want none and a free slot", boxA.count(), boxD.count(), u.status("slot9"))
	}
	if st := h.net.Stats(); st.Dropped != 1 {
		t.Fatalf("%d sends failed, want the one vote and no retry", st.Dropped)
	}
	if l, ok := u.Links.GetLink("LA"); !ok || l.Subtype != links.Tentative {
		t.Fatalf("LA = %+v, want it still queued", l)
	}
	h.wantQuiet("u")

	h.net.SetDown("node-a", false)
	u.Links.Offer(ctxBg(), "slot9")
	if boxA.count() != 1 || u.status("slot9") != "MA" {
		t.Fatalf("after a is back: %d votes, slot %q; want one and MA", boxA.count(), u.status("slot9"))
	}
	h.wantQuiet("u", "a")
}

// scanPick is the offer's choice as a scan of every decoded link on the
// entity makes it: in LinksOn's order (priority descending, then id), the
// first tentative link with a vote trigger whose target is not notTo and
// that has not declined.
func scanPick(on []*links.Link, notTo string, declined []string) *links.Link {
	for _, l := range on {
		if l.Subtype != links.Tentative || len(l.Targets) == 0 || l.Targets[0].User == notTo || slices.Contains(declined, l.ID) {
			continue
		}
		for _, tr := range l.Triggers {
			if tr.Event == "avail" && tr.Action != "" && tr.Method != "" {
				return l
			}
		}
	}
	return nil
}

// TestOfferPicksWhatTheScanPicks: the offer ranks the tentative rows on
// the entity by their columns and decodes them best first. The waiters it
// votes for are the ones a scan of every decoded link picks: here the
// best-ranked tentative link does not vote, the next is the one whose
// target let go, the next declines, and the vote goes to the waiter of
// the same priority and a higher id; a permanent link of higher priority
// and the worst waiter are never offered the slot.
func TestOfferPicksWhatTheScanPicks(t *testing.T) {
	h := newHarness(t, "u", "a", "b", "c", "d", "e")
	u, slot := h.nodes["u"], links.EntityRef{User: "u", Entity: "slot9"}
	boxes := map[string]*voteBox{}
	for _, user := range []string{"a", "c", "d", "e"} {
		boxes[user] = h.addVoteBox(user)
	}
	boxes["a"].decline = true
	held := newLink("LH", links.Negotiation, links.Permanent, slot, refs("b", "slot9"))
	held.Priority, held.Group = 10, "MB"
	quiet := newLink("L0", links.Negotiation, links.Tentative, slot, refs("b", "slot9"))
	quiet.Priority, quiet.Group = 9, "MQ"
	quiet.Triggers = []links.Trigger{{Event: "promote", Service: "meetings.%s", Method: "Freed"}}
	for _, l := range []*links.Link{held, quiet} {
		if err := u.Links.InstallAt(ctxBg(), "u", l); err != nil {
			t.Fatal(err)
		}
	}
	h.queueVoter("L7", slot, "c", "MC", 7, "")
	h.queueVoter("L9", slot, "d", "MD", 5, "")
	h.queueVoter("L5", slot, "a", "MA", 5, "")
	h.queueVoter("L2", slot, "e", "ME", 2, "")

	first := scanPick(u.Links.LinksOn("slot9"), "c", nil)
	second := scanPick(u.Links.LinksOn("slot9"), "c", []string{first.ID})
	if first.ID != "L5" || second.ID != "L9" {
		t.Fatalf("the scan picks %s then %s, want L5 then L9", first.ID, second.ID)
	}
	u.Links.OfferExcept(ctxBg(), "slot9", "c")
	for user, want := range map[string]int{"a": 1, "c": 0, "d": 1, "e": 0} {
		if got := boxes[user].count(); got != want {
			t.Errorf("%s heard %d votes, want %d", user, got, want)
		}
	}
	if got := u.status("slot9"); got != "MD" {
		t.Fatalf("u's slot = %q, want MD (%s's meeting)", got, second.ID)
	}
	h.wantQuiet("u", "a", "d")
}

// TestBlockerIsWhatTheScanPicks: BlockerIn reads the blocker a meeting
// queued on an entity waits on from the link rows' columns, as the unit
// sees them; it is the link a scan of every decoded link picks (LinksOnIn's
// order, the first permanent one of another meeting with a group). Here
// the best-ranked links are the meeting's own, one of no meeting, a
// tentative one and one on another entity; two of the rest tie on
// priority. Links the unit adds and promotes count as they leave them.
func TestBlockerIsWhatTheScanPicks(t *testing.T) {
	h := newHarness(t, "u")
	u := h.nodes["u"]
	install := func(id, entity, group string, sub links.Subtype, prio int) *links.Link {
		l := newLink(id, links.Negotiation, sub, links.EntityRef{User: "u", Entity: entity}, refs("b", entity))
		l.Group, l.Priority = group, prio
		return l
	}
	for _, l := range []*links.Link{
		install("LA", "slot9", "M1", links.Permanent, 9),
		install("LB", "slot9", "", links.Permanent, 9),
		install("LE", "slot9", "M4", links.Tentative, 8),
		install("LF", "slot8", "M5", links.Permanent, 9),
		install("LD", "slot9", "M3", links.Permanent, 3),
		install("LC", "slot9", "M2", links.Permanent, 3),
	} {
		if err := u.Links.InstallAt(ctxBg(), "u", l); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(tx *store.Tx, entity, group string) string {
		for _, l := range u.Links.LinksOnIn(tx, entity) {
			if l.Subtype == links.Permanent && l.Group != group && l.Group != "" {
				return l.ID
			}
		}
		return ""
	}
	err := u.DB.Unit(ctxBg(), func(tx *store.Tx) error {
		check := func(entity, group, want string) {
			t.Helper()
			if got, scanned := u.Links.BlockerIn(tx, entity, group), scan(tx, entity, group); got != want || scanned != want {
				t.Errorf("blocker of %s on %s = %q, the scan picks %q, want %q", group, entity, got, scanned, want)
			}
		}
		check("slot9", "M1", "LC")
		check("slot9", "M2", "LA")
		check("slot9", "", "LA")
		check("slot8", "M5", "")
		check("slot7", "M1", "")
		if err := u.Links.AddLink(tx, install("LG", "slot9", "M6", links.Permanent, 4)); err != nil {
			return err
		}
		check("slot9", "M1", "LG")
		if err := u.Links.PromoteLink(tx, "LE", nil); err != nil {
			return err
		}
		check("slot9", "M1", "LE")
		if err := u.Links.RemoveLink(tx, "LE"); err != nil {
			return err
		}
		check("slot9", "M1", "LG")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
