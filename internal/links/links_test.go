package links_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tnode is a test device: a core Node plus a toy slot table with
// "reserve" / "release" / "note" actions registered on its link
// manager.
type tnode struct {
	*core.Node
	mu    sync.Mutex
	slots map[string]string // entity -> "" (free) | meeting id
	notes []string
}

func (n *tnode) status(entity string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slots[entity]
}

func (n *tnode) setStatus(entity, v string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.slots[entity] = v
}

// checkFree is reserve's Check: entity is free, or already the
// meeting's.
func (n *tnode) checkFree(entity string, args wire.Args) error {
	meeting := args.String("meeting")
	if cur := n.status(entity); cur != "" && cur != meeting {
		return &wire.RemoteError{Code: wire.CodeConflict, Msg: fmt.Sprintf("%s/%s already reserved for %s", n.User, entity, cur)}
	}
	return nil
}

func (n *tnode) noteCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.notes)
}

type harness struct {
	t     *testing.T
	net   *sim.Net
	clk   *clock.Fake
	nodes map[string]*tnode
}

func newHarness(t *testing.T, users ...string) *harness {
	t.Helper()
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	_, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, net: net, clk: clk, nodes: make(map[string]*tnode)}
	for _, u := range users {
		h.addNode(u)
	}
	return h
}

// inboundNet is a network whose Listen puts wrap in front of the
// requests of every handler bound on it: the seam at which a test counts
// a node's inbound calls or loses their answers.
type inboundNet struct {
	transport.Network
	wrap func(next transport.HandlerFunc) transport.HandlerFunc
}

func (n inboundNet) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	return n.Network.Listen(addr, inboundHandler{Handler: h, serve: n.wrap(h.HandleRequest)})
}

// outboundNet is a network that hands every request sent over it to
// before, before it leaves: the seam at which a test holds a node's
// outbound calls or acts between them.
type outboundNet struct {
	transport.Network
	before func(req *transport.Request)
}

func (n outboundNet) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	n.before(req)
	return n.Network.Call(ctx, addr, req)
}

// inboundHandler is a handler whose requests go through serve.
type inboundHandler struct {
	transport.Handler
	serve transport.HandlerFunc
}

func (h inboundHandler) HandleRequest(ctx context.Context, req *transport.Request) transport.Response {
	return h.serve(ctx, req)
}

func (h *harness) addNode(user string, with ...func(*core.Config)) *tnode {
	h.t.Helper()
	ctx := context.Background()
	cfg := core.Config{
		User:    user,
		Net:     h.net,
		DirAddr: "dir",
		Clock:   h.clk,
	}
	for _, w := range with {
		w(&cfg)
	}
	n, err := core.Start(ctx, cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	tn := &tnode{Node: n, slots: make(map[string]string)}
	n.Links.RegisterAction("reserve", links.Action{
		Check: tn.checkFree,
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			tn.setStatus(entity, args.String("meeting"))
			return nil
		},
	})
	n.Links.RegisterAction("release", links.Action{
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			tn.setStatus(entity, "")
			return nil
		},
	})
	n.Links.RegisterAction("note", links.Action{
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			tn.mu.Lock()
			tn.notes = append(tn.notes, entity+":"+args.String("text"))
			tn.mu.Unlock()
			return nil
		},
	})
	h.nodes[user] = tn
	return tn
}

// releasingBackoffs runs fn — recovery sweeps that may find a peer
// unreachable — and advances the fake clock by d whenever a sweep has
// parked on it: the wait between a redrive's two attempts (commitQoS,
// RetryBase/8) is a manager timer, and under a manual clock nothing
// else moves it.
func (h *harness) releasingBackoffs(d time.Duration, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		select {
		case <-done:
			return
		case <-time.After(100 * time.Microsecond):
			if h.clk.PendingWaiters() > 0 {
				h.clk.Advance(d)
			}
		}
	}
}

func refs(pairs ...string) []links.EntityRef {
	var out []links.EntityRef
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, links.EntityRef{User: pairs[i], Entity: pairs[i+1]})
	}
	return out
}

func ctxBg() context.Context { return context.Background() }

// --- negotiation protocol ----------------------------------------------------

func TestNegotiateAndAllFree(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9"),
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: "slot9", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Accepted) != 2 || len(res.Rejected) != 0 {
		t.Fatalf("res = %+v", res)
	}
	for _, u := range []string{"a", "b", "c"} {
		if got := h.nodes[u].status("slot9"); got != "M1" {
			t.Fatalf("%s slot9 = %q", u, got)
		}
	}
}

func TestNegotiateAndOneBusyChangesNothing(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["c"].setStatus("slot9", "OTHER")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9"),
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: "slot9", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}},
	})
	if err == nil || res.OK {
		t.Fatalf("negotiation should have failed: %+v", res)
	}
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
	// Atomicity: nobody changed, no locks left behind.
	if h.nodes["a"].status("slot9") != "" || h.nodes["b"].status("slot9") != "" {
		t.Fatal("partial change leaked")
	}
	if h.nodes["c"].status("slot9") != "OTHER" {
		t.Fatal("busy slot clobbered")
	}
	for _, u := range []string{"a", "b", "c"} {
		if h.nodes[u].Links.Locks.Len() != 0 {
			t.Fatalf("%s has %d leaked locks", u, h.nodes[u].Links.Locks.Len())
		}
	}
}

func TestNegotiateOrPartialAvailability(t *testing.T) {
	h := newHarness(t, "a", "b", "c", "d")
	h.nodes["c"].setStatus("slot9", "OTHER")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9", "d", "slot9"),
		Constraint: links.Or,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Accepted) != 2 || len(res.Rejected) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if h.nodes["b"].status("slot9") != "M1" || h.nodes["d"].status("slot9") != "M1" {
		t.Fatal("available targets not changed")
	}
	if h.nodes["c"].status("slot9") != "OTHER" {
		t.Fatal("busy target clobbered")
	}
}

func TestNegotiateOrNoneAvailableFails(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("slot9", "X")
	h.nodes["c"].setStatus("slot9", "Y")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9"),
		Constraint: links.Or,
	})
	if err == nil || res.OK {
		t.Fatalf("res = %+v", res)
	}
}

func TestNegotiateKofN(t *testing.T) {
	h := newHarness(t, "a", "b", "c", "d", "e")
	h.nodes["e"].setStatus("slot9", "BUSY")
	// at least 3 of {b,c,d,e}: b,c,d free -> satisfied.
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9", "d", "slot9", "e", "slot9"),
		Constraint: links.Or,
		K:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 3 {
		t.Fatalf("accepted = %v", res.Accepted)
	}
	// at least 3 of {b,c,d,e} when two are busy -> fails.
	h2 := newHarness(t, "a", "b", "c", "d", "e")
	h2.nodes["d"].setStatus("slot9", "BUSY")
	h2.nodes["e"].setStatus("slot9", "BUSY")
	_, err = h2.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9", "d", "slot9", "e", "slot9"),
		Constraint: links.Or,
		K:          3,
	})
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
}

func TestNegotiateXorExactlyOne(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("slot9", "BUSY")
	// Exactly one of {b, c} available -> xor satisfied, c changes.
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9"),
		Constraint: links.Xor,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || res.Accepted[0].User != "c" {
		t.Fatalf("accepted = %v", res.Accepted)
	}
}

func TestNegotiateXorTwoAvailableFails(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9", "c", "slot9"),
		Constraint: links.Xor,
	})
	if err == nil || res.OK {
		t.Fatalf("xor with 2 available must fail: %+v", res)
	}
	if h.nodes["b"].status("slot9") != "" || h.nodes["c"].status("slot9") != "" {
		t.Fatal("xor failure must change nothing")
	}
}

func TestNegotiateLocalMarkFailsFast(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.nodes["a"].setStatus("slot9", "MINE")
	before := h.net.Stats().Requests
	_, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slot9"),
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: "slot9", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}},
	})
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
	if got := h.net.Stats().Requests - before; got != 0 {
		t.Fatalf("local mark failure still made %d remote calls", got)
	}
}

func TestNegotiationTraceShape(t *testing.T) {
	// The Figure 4 reproduction: negotiation-or over B and C from A, its
	// steps the events of A's links.Negotiate span.
	col := trace.NewCollector()
	h := newTracedHarness(t, col, 1, "a", "b", "c")
	if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action:     "reserve",
		Args:       wire.Args{wire.Str("meeting", "M1")},
		Targets:    refs("b", "slotX", "c", "slotX"),
		Constraint: links.Or,
		Local:      &links.LocalChange{Entity: "slotX", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}},
	}); err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, e := range negotiationSteps(t, col) {
		phases = append(phases, e.Name)
	}
	// mark(A), mark(B), mark(C), constraint, change(A), change+unlock each.
	if len(phases) < 7 {
		t.Fatalf("trace too short: %v", phases)
	}
	if phases[0] != "mark" {
		t.Fatalf("first phase %q", phases[0])
	}
	sawConstraint := false
	for i, p := range phases {
		if p == "constraint" {
			sawConstraint = true
			for _, q := range phases[:i] {
				if q != "mark" {
					t.Fatalf("phase %q before constraint", q)
				}
			}
			for _, q := range phases[i+1:] {
				if q != "journal.begin" && q != "journal.retire" && q != "change" && q != "unlock" {
					t.Fatalf("phase %q after constraint", q)
				}
			}
		}
	}
	if !sawConstraint {
		t.Fatalf("no constraint step in %v", phases)
	}
}

func TestConcurrentNegotiationsExactlyOneWins(t *testing.T) {
	h := newHarness(t, "a", "b", "x", "y")
	// a and b race to reserve the same slots on x and y with "and".
	run := func(user, meeting string) error {
		_, err := h.nodes[user].Links.Negotiate(ctxBg(), links.Spec{
			Action:     "reserve",
			Args:       wire.Args{wire.Str("meeting", meeting)},
			Targets:    refs("x", "s", "y", "s"),
			Constraint: links.And,
		})
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = run("a", "MA") }()
	go func() { defer wg.Done(); errs[1] = run("b", "MB") }()
	wg.Wait()

	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		}
	}
	if wins != 1 {
		// Both failing is possible only with unordered acquisition;
		// ordered try-locks guarantee someone proceeds... unless both
		// marked disjoint prefixes. With identical ordered target
		// lists, the one that locks x/s first wins both.
		t.Fatalf("wins = %d, errs = %v", wins, errs)
	}
	if h.nodes["x"].status("s") != h.nodes["y"].status("s") {
		t.Fatalf("split brain: x=%s y=%s", h.nodes["x"].status("s"), h.nodes["y"].status("s"))
	}
	if h.nodes["x"].Links.Locks.Len()+h.nodes["y"].Links.Locks.Len() != 0 {
		t.Fatal("locks leaked")
	}
}

// --- link CRUD, waiting links, promotion --------------------------------------

func newLink(id string, typ links.Type, sub links.Subtype, owner links.EntityRef, targets []links.EntityRef) *links.Link {
	return &links.Link{
		ID: id, Type: typ, Subtype: sub,
		Owner: owner, Targets: targets,
		Constraint: links.And,
	}
}

func TestAddGetLinksOn(t *testing.T) {
	h := newHarness(t, "a")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "slot9"}
	l1 := newLink("L1", links.Negotiation, links.Permanent, owner, refs("b", "slot9"))
	l1.Priority = 1
	l2 := newLink("L2", links.Subscription, links.Permanent, owner, refs("c", "slot9"))
	l2.Priority = 9
	if err := lm.InstallAt(context.Background(), lm.Self(), l1); err != nil {
		t.Fatal(err)
	}
	if err := lm.InstallAt(context.Background(), lm.Self(), l2); err != nil {
		t.Fatal(err)
	}
	got, ok := lm.GetLink("L1")
	if !ok || got.Type != links.Negotiation || got.Owner != owner {
		t.Fatalf("GetLink = %+v ok=%v", got, ok)
	}
	on := lm.LinksOn("slot9")
	if len(on) != 2 || on[0].ID != "L2" || on[1].ID != "L1" {
		t.Fatalf("LinksOn order: %v, %v", on[0].ID, on[1].ID)
	}
	if len(lm.LinksOn("other")) != 0 {
		t.Fatal("LinksOn leaked across entities")
	}
	if len(lm.AllLinks()) != 2 {
		t.Fatal("AllLinks wrong")
	}
}

func TestLinkValidation(t *testing.T) {
	h := newHarness(t, "a")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "e"}
	bad := []*links.Link{
		{Type: links.Negotiation, Subtype: links.Permanent, Owner: owner, Constraint: links.And},                 // no ID
		{ID: "x", Type: "bogus", Subtype: links.Permanent, Owner: owner},                                         // bad type
		{ID: "x", Type: links.Subscription, Subtype: "bogus", Owner: owner},                                      // bad subtype
		{ID: "x", Type: links.Negotiation, Subtype: links.Permanent, Owner: owner},                               // no constraint
		{ID: "x", Type: links.Subscription, Subtype: links.Permanent},                                            // no owner
		{ID: "x", Type: links.Subscription, Subtype: links.Permanent, Owner: owner, WaitingOn: "L0"},             // permanent waiting
		{ID: "x", Type: links.Negotiation, Subtype: links.Permanent, Owner: owner, Constraint: "nand"},           // bad constraint
		{ID: "x", Type: links.Negotiation, Subtype: links.Permanent, Owner: owner, Constraint: links.And, K: -1}, // bad k
	}
	for i, l := range bad {
		if err := lm.InstallAt(context.Background(), lm.Self(), l); err == nil {
			t.Fatalf("bad link %d accepted", i)
		}
	}
}

func TestWaitingLinkPromotionOnDelete(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "slot9"}

	perm := newLink("L0", links.Negotiation, links.Permanent, owner, refs("b", "slot9"))
	if err := lm.InstallAt(context.Background(), lm.Self(), perm); err != nil {
		t.Fatal(err)
	}
	tent := newLink("L1", links.Negotiation, links.Tentative, owner, refs("b", "slot10"))
	tent.WaitingOn = "L0"
	tent.Priority = 3
	if err := lm.InstallAt(context.Background(), lm.Self(), tent); err != nil {
		t.Fatal(err)
	}

	var hookEvents []string
	lm.SetEventHook(func(_ *store.Tx, kind string, l *links.Link, args wire.Args) error {
		hookEvents = append(hookEvents, kind+":"+l.ID)
		return nil
	})

	if err := lm.DeleteLink(ctxBg(), "L0", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := lm.GetLink("L1")
	if !ok || got.Subtype != links.Permanent || got.WaitingOn != "" {
		t.Fatalf("L1 after promotion: %+v", got)
	}
	if _, ok := lm.GetLink("L0"); ok {
		t.Fatal("L0 survived deletion")
	}
	wantHooks := map[string]bool{"promote:L1": false, "delete:L0": false}
	for _, e := range hookEvents {
		if _, ok := wantHooks[e]; ok {
			wantHooks[e] = true
		}
	}
	for k, seen := range wantHooks {
		if !seen {
			t.Fatalf("hook %s not fired (got %v)", k, hookEvents)
		}
	}
}

func TestPromotionPicksHighestPriorityGroup(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "slot9"}
	if err := lm.InstallAt(context.Background(), lm.Self(), newLink("L0", links.Negotiation, links.Permanent, owner, refs("b", "slot9"))); err != nil {
		t.Fatal(err)
	}
	mk := func(id string, prio int, grp string) {
		l := newLink(id, links.Negotiation, links.Tentative, owner, refs("b", "s"))
		l.WaitingOn = "L0"
		l.Priority = prio
		l.Group = grp
		if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
			t.Fatal(err)
		}
	}
	mk("W-low", 1, "meetLow")
	mk("W-high-1", 5, "meetHigh")
	mk("W-high-2", 5, "meetHigh")

	if err := lm.DeleteLink(ctxBg(), "L0", nil); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, l := range lm.AllLinks() {
		ids[l.ID] = l.Subtype == links.Permanent
	}
	if !ids["W-high-1"] || !ids["W-high-2"] || ids["W-low"] {
		t.Fatalf("promoted = %v", ids)
	}
	// The loser is re-pointed at a promoted link.
	low, ok := lm.GetLink("W-low")
	if !ok || low.Subtype != links.Tentative {
		t.Fatalf("W-low = %+v", low)
	}
	if low.WaitingOn != "W-high-1" {
		t.Fatalf("W-low waits on %q", low.WaitingOn)
	}
}

// participantRow is the row of link id that own holds: own as the
// owner, every other entity of all as a target.
func participantRow(id string, own links.EntityRef, all []links.EntityRef) *links.Link {
	var others []links.EntityRef
	for _, r := range all {
		if r != own {
			others = append(others, r)
		}
	}
	return newLink(id, links.Negotiation, links.Permanent, own, others)
}

// installEverywhere installs each participant's row of link id with
// InstallAt from all[0]'s device, with no availability check.
func installEverywhere(t *testing.T, h *harness, id string, all []links.EntityRef) {
	t.Helper()
	lm := h.nodes[all[0].User].Links
	for _, ref := range all {
		if err := lm.InstallAt(ctxBg(), ref.User, participantRow(id, ref, all)); err != nil {
			t.Fatal(err)
		}
	}
}

// negotiateLink is §4.2 op 2, availability-negotiated link creation,
// through the §4.3 negotiation the calendar's reserve runs: every
// participant is marked (lock + reserve's Check), and only if all of
// them are available does each one's Commit reserve its entity and
// install its row of the link, in one unit, under the id the Commit
// carries. all[0] is the activator.
func negotiateLink(h *harness, id, meeting string, all []links.EntityRef) (*links.Result, error) {
	for _, ref := range all {
		n := h.nodes[ref.User]
		n.Links.RegisterAction("link", links.Action{
			Check: n.checkFree,
			Apply: func(u *store.Tx, entity string, args wire.Args) error {
				n.setStatus(entity, args.String("meeting"))
				own := links.EntityRef{User: n.User, Entity: entity}
				return n.Links.AddLink(u, participantRow(args.String("link"), own, all))
			},
		})
	}
	args := wire.Args{wire.Str("meeting", meeting), wire.Str("link", id)}
	return h.nodes[all[0].User].Links.Negotiate(ctxBg(), links.Spec{
		Action: "link", Args: args, Targets: all[1:], Constraint: links.And,
		Local: &links.LocalChange{Entity: all[0].Entity, Action: "link", Args: args},
	})
}

func TestNegotiatedLinkAllAvailable(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	all := refs("a", "slot9", "b", "slot9", "c", "slot9")
	id := links.NewLinkID()
	if res, err := negotiateLink(h, id, "M1", all); err != nil || !res.OK {
		t.Fatalf("negotiate = %+v, %v", res, err)
	}
	for _, ref := range all {
		l, ok := h.nodes[ref.User].Links.GetLink(id)
		if !ok {
			t.Fatalf("link %s missing at %s", id, ref.User)
		}
		if l.Owner != ref || len(l.Targets) != 2 || l.Targets[0] == ref || l.Targets[1] == ref {
			t.Fatalf("row at %s = owner %v targets %v", ref.User, l.Owner, l.Targets)
		}
		if got := h.nodes[ref.User].status("slot9"); got != "M1" {
			t.Fatalf("%s/slot9 = %q, want M1", ref.User, got)
		}
		if n := len(h.nodes[ref.User].Links.AllLinks()); n != 1 {
			t.Fatalf("%s holds %d links, want 1", ref.User, n)
		}
	}
}

func TestNegotiatedLinkFailsWhenUnavailable(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["c"].setStatus("slot9", "BUSY")
	all := refs("a", "slot9", "b", "slot9", "c", "slot9")
	if res, err := negotiateLink(h, links.NewLinkID(), "M2", all); err == nil || res.OK {
		t.Fatalf("link created despite unavailable participant: %+v, %v", res, err)
	}
	for _, ref := range all {
		if ls := h.nodes[ref.User].Links.AllLinks(); len(ls) != 0 {
			t.Fatalf("partial link row left at %s: %+v", ref.User, ls)
		}
	}
	for _, u := range []string{"a", "b"} {
		if got := h.nodes[u].status("slot9"); got != "" {
			t.Fatalf("%s/slot9 = %q, want free", u, got)
		}
	}
}

func TestDeleteCascadesAcrossUsers(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	all := refs("a", "slot9", "b", "slot9", "c", "slot9")
	if _, err := negotiateLink(h, "LX", "M1", all); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c"} {
		if _, ok := h.nodes[u].Links.GetLink("LX"); !ok {
			t.Fatalf("link missing at %s", u)
		}
	}
	if err := h.nodes["a"].Links.DeleteLink(ctxBg(), "LX", nil); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c"} {
		if _, ok := h.nodes[u].Links.GetLink("LX"); ok {
			t.Fatalf("link survived at %s", u)
		}
	}
}

// TestCascadeCarriesVisited: the §4.4 cascade sends each participant
// not yet visited one DeleteLink, in participant order, carrying the
// users visited and the sender. A participant whose row names only users
// visited already (the star of a calendar meeting's back links) sends
// none; one whose row names a user not yet visited forwards to it.
func TestCascadeCarriesVisited(t *testing.T) {
	for _, tc := range []struct {
		name string
		mesh bool // each participant's row names every other participant
		want []string
	}{
		{"star", false, []string{"a->b [a]", "a->c [a]"}},
		{"mesh", true, []string{"a->b [a]", "b->c [a b]", "a->c [a]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			var mu sync.Mutex
			var sent []string
			for _, u := range []string{"a", "b", "c"} {
				h.addNode(u, func(c *core.Config) {
					c.Net = outboundNet{Network: c.Net, before: func(req *transport.Request) {
						if req.Method == "DeleteLink" {
							to := strings.TrimPrefix(req.Service, links.ServicePrefix)
							mu.Lock()
							sent = append(sent, fmt.Sprintf("%s->%s %v", u, to, req.Args.Strings("visited")))
							mu.Unlock()
						}
					}}
				})
			}
			all := refs("a", "slot9", "b", "slot9", "c", "slot9")
			lm := h.nodes["a"].Links
			for _, ref := range all {
				row := participantRow("LX", ref, all)
				if ref.User != "a" && !tc.mesh {
					row = newLink("LX", links.Negotiation, links.Permanent, ref, all[:1])
				}
				if err := lm.InstallAt(ctxBg(), ref.User, row); err != nil {
					t.Fatal(err)
				}
			}
			if err := lm.DeleteLink(ctxBg(), "LX", nil); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sent, tc.want) {
				t.Fatalf("DeleteLinks sent %q, want %q", sent, tc.want)
			}
			for _, u := range []string{"a", "b", "c"} {
				if _, ok := h.nodes[u].Links.GetLink("LX"); ok {
					t.Fatalf("link survived at %s", u)
				}
			}
		})
	}
}

func TestExpireSweep(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "slot9"}
	expiring := newLink("L-exp", links.Negotiation, links.Permanent, owner, refs("b", "slot9"))
	expiring.Expires = h.clk.Now().Add(time.Hour)
	if err := lm.InstallAt(context.Background(), lm.Self(), expiring); err != nil {
		t.Fatal(err)
	}
	keeper := newLink("L-keep", links.Negotiation, links.Permanent, owner, refs("b", "slot9"))
	if err := lm.InstallAt(context.Background(), lm.Self(), keeper); err != nil {
		t.Fatal(err)
	}

	if got := lm.ExpireSweep(ctxBg(), h.clk.Now()); len(got) != 0 {
		t.Fatalf("premature expiry: %v", got)
	}
	h.clk.Advance(2 * time.Hour)
	got := lm.ExpireSweep(ctxBg(), h.clk.Now())
	if len(got) != 1 || got[0] != "L-exp" {
		t.Fatalf("expired = %v", got)
	}
	if _, ok := lm.GetLink("L-exp"); ok {
		t.Fatal("expired link still present")
	}
	if _, ok := lm.GetLink("L-keep"); !ok {
		t.Fatal("unexpired link swept")
	}
}

// --- triggers -----------------------------------------------------------------

func TestTriggerEntityNegotiationVeto(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	lm := h.nodes["a"].Links
	l := newLink("L1", links.Negotiation, links.Permanent,
		links.EntityRef{User: "a", Entity: "slot9"}, refs("b", "slot9", "c", "slot9"))
	l.Triggers = []links.Trigger{{Event: "change", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}}}
	if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
		t.Fatal(err)
	}

	// All free: change allowed, targets changed.
	results, err := lm.TriggerEntity(ctxBg(), "slot9", "change", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Negotiation == nil || !results[0].Negotiation.OK {
		t.Fatalf("results = %+v", results)
	}
	if h.nodes["b"].status("slot9") != "M1" {
		t.Fatal("target not changed")
	}

	// Now c is busy with another meeting: the negotiation-and link
	// vetoes the change.
	h.nodes["c"].setStatus("slot9", "OTHER")
	_, err = lm.TriggerEntity(ctxBg(), "slot9", "change", nil)
	if err == nil {
		t.Fatal("veto expected")
	}
}

func TestTriggerEntitySubscriptionBestEffort(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	lm := h.nodes["a"].Links
	l := newLink("L1", links.Subscription, links.Permanent,
		links.EntityRef{User: "a", Entity: "slot9"}, refs("b", "inbox", "c", "inbox"))
	l.Triggers = []links.Trigger{{Event: "change", Action: "note", Args: wire.Args{wire.Str("text", "a changed slot9")}}}
	if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
		t.Fatal(err)
	}
	// c is unreachable; subscription must still deliver to b and not veto.
	h.net.SetDown("node-c", true)
	results, err := lm.TriggerEntity(ctxBg(), "slot9", "change", nil)
	if err != nil {
		t.Fatalf("subscription must not veto: %v", err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("expected recorded best-effort error, got %+v", results)
	}
	if h.nodes["b"].noteCount() != 1 {
		t.Fatalf("b notes = %d", h.nodes["b"].noteCount())
	}
}

func TestTriggerMethodInvocation(t *testing.T) {
	h := newHarness(t, "a", "b")
	// b publishes an app service with a Notify method.
	var mu sync.Mutex
	var calls []wire.Args
	obj := newAppObject(func(args wire.Args) {
		mu.Lock()
		calls = append(calls, args)
		mu.Unlock()
	})
	if err := h.nodes["b"].RegisterService(ctxBg(), "meetings.b", obj); err != nil {
		t.Fatal(err)
	}

	lm := h.nodes["a"].Links
	l := newLink("L1", links.Subscription, links.Permanent,
		links.EntityRef{User: "a", Entity: "slot9"}, refs("b", "slot9"))
	l.Triggers = []links.Trigger{{
		Event: "delete", Service: "meetings.%s", Method: "Notify",
		Args: wire.Args{wire.Str("reason", "cancelled")},
	}}
	if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
		t.Fatal(err)
	}
	if err := lm.DeleteLink(ctxBg(), "L1", nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("calls = %d", len(calls))
	}
	if calls[0].String("reason") != "cancelled" || calls[0].String("link") != "L1" || calls[0].String("source") != "a" {
		t.Fatalf("args = %v", calls[0])
	}
}

func TestTentativeOnlyHighestPriorityFires(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	owner := links.EntityRef{User: "a", Entity: "slot9"}
	mk := func(id string, prio int, text string) {
		l := newLink(id, links.Subscription, links.Tentative, owner, refs("b", "inbox"))
		l.Priority = prio
		l.Triggers = []links.Trigger{{Event: "avail", Action: "note", Args: wire.Args{wire.Str("text", text)}}}
		if err := lm.InstallAt(context.Background(), lm.Self(), l); err != nil {
			t.Fatal(err)
		}
	}
	mk("T-low", 1, "low")
	mk("T-high", 9, "high")
	if _, err := lm.TriggerEntity(ctxBg(), "slot9", "avail", nil); err != nil {
		t.Fatal(err)
	}
	h.nodes["b"].mu.Lock()
	notes := append([]string(nil), h.nodes["b"].notes...)
	h.nodes["b"].mu.Unlock()
	if len(notes) != 1 || notes[0] != "inbox:high" {
		t.Fatalf("notes = %v", notes)
	}
}

// --- method invocation mapping (op 5) -----------------------------------------

// TestMethodForwarding: §4.2 op 5 maps a method on one entity to a
// method elsewhere. That mapping is a subscription link's invoke
// trigger: TriggerEntity calls the destination with the caller's args,
// and once the link is gone the same event calls nothing.
func TestMethodForwarding(t *testing.T) {
	h := newHarness(t, "a", "b")
	var mu sync.Mutex
	var got []wire.Args
	obj := newAppObject(func(args wire.Args) {
		mu.Lock()
		got = append(got, args)
		mu.Unlock()
	})
	if err := h.nodes["b"].RegisterService(ctxBg(), "cal.b", obj); err != nil {
		t.Fatal(err)
	}
	calls := func() []wire.Args {
		mu.Lock()
		defer mu.Unlock()
		return append([]wire.Args(nil), got...)
	}
	lm := h.nodes["a"].Links
	l := newLink("LM", links.Subscription, links.Permanent,
		links.EntityRef{User: "a", Entity: "slot9"}, refs("b", "slot9"))
	l.Triggers = []links.Trigger{{Event: "invoke", Service: "cal.b", Method: "Notify"}}
	if err := lm.InstallAt(ctxBg(), lm.Self(), l); err != nil {
		t.Fatal(err)
	}
	res, err := lm.TriggerEntity(ctxBg(), "slot9", "invoke", wire.Args{wire.Str("slot", "mon-9")})
	if err != nil || len(res) != 1 || res[0].Err != nil {
		t.Fatalf("trigger = %+v, %v", res, err)
	}
	if c := calls(); len(c) != 1 || c[0].String("slot") != "mon-9" || c[0].String("link") != "LM" {
		t.Fatalf("forwarded calls = %v", c)
	}
	// Other events and other entities forward nothing.
	if res, _ := lm.TriggerEntity(ctxBg(), "slot9", "other", nil); len(res) != 0 {
		t.Fatalf("unexpected forward: %+v", res)
	}
	if res, _ := lm.TriggerEntity(ctxBg(), "slot10", "invoke", nil); len(res) != 0 {
		t.Fatalf("unexpected forward: %+v", res)
	}
	if err := lm.DeleteLinkLocal(ctxBg(), "LM"); err != nil {
		t.Fatal(err)
	}
	if res, _ := lm.TriggerEntity(ctxBg(), "slot9", "invoke", nil); len(res) != 0 {
		t.Fatalf("forward after removal: %+v", res)
	}
	if c := calls(); len(c) != 1 {
		t.Fatalf("forwarded %d times, want 1", len(c))
	}
}

// --- remote service object ------------------------------------------------------

func TestRemoteLinksServiceRoundTrip(t *testing.T) {
	h := newHarness(t, "a", "b")
	// a installs a link row at b through the wire.
	l := newLink("L-remote", links.Subscription, links.Permanent,
		links.EntityRef{User: "b", Entity: "slot9"}, refs("a", "slot9"))
	if err := h.nodes["a"].Links.InstallAt(ctxBg(), "b", l); err != nil {
		t.Fatal(err)
	}
	got, ok := h.nodes["b"].Links.GetLink("L-remote")
	if !ok || got.Owner.User != "b" {
		t.Fatalf("remote install failed: %+v ok=%v", got, ok)
	}
	// Remote Mark/Commit through the service.
	var out string // the token of the lock the Mark took
	err := h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "slot9"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "MM")}),
	}, &out)
	if err != nil || out == "" {
		t.Fatalf("Mark: %v token=%q", err, out)
	}
	// Second mark conflicts.
	err = h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), "Mark", wire.Args{
		wire.Str("entity", "slot9"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "ZZ")}),
	}, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("second Mark: %v", err)
	}
	// Commit with a stale token fails.
	err = h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), "Commit", wire.Args{
		wire.Str("entity", "slot9"),
		wire.Str("token", "bogus"),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "MM")}),
	}, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("stale commit: %v", err)
	}
	// Proper commit applies.
	err = h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), "Commit", wire.Args{
		wire.Str("entity", "slot9"),
		wire.Str("token", out),
		wire.Str("action", "reserve"),
		wire.Sub("args", wire.Args{wire.Str("meeting", "MM")}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.nodes["b"].status("slot9") != "MM" {
		t.Fatalf("status = %q", h.nodes["b"].status("slot9"))
	}
}

// newAppObject builds a one-method listener object calling fn on
// Notify.
func newAppObject(fn func(wire.Args)) *listener.Object {
	return listener.NewObject().Handle("Notify", func(ctx context.Context, call *listener.Call) (any, error) {
		fn(call.Args)
		return true, nil
	})
}
