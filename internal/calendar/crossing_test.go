package calendar_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/wire"
)

// A meeting lock is released before a link is deleted on another device.
// These tests make two initiators' deletions cross: each frees a slot the
// other's meeting is queued on, so each deletion's offer asks the other
// initiator to confirm while that initiator's own deletion is under way.
// Two confirms cross the same way when each one's Abort frees such a slot.

// crossing holds the first held call (a link deletion, or an Abort) x and
// y each send until both have arrived (both ops have decided and logged
// what they decide before they send), and y's a little longer, until the
// vote x's call produces has reached y: the order in which both ops wait
// on the other initiator's meeting lock, if one is held.
type crossing struct {
	mu      sync.Mutex
	armed   bool
	holds   []string
	arrived map[string]bool
	both    chan struct{}
	voteAtY chan struct{}
}

func (g *crossing) middleware(next listener.Method) listener.Method {
	return func(ctx context.Context, call *listener.Call) (any, error) {
		g.mu.Lock()
		hold := false
		switch {
		case !g.armed:
		case call.Method == "SlotAvailable" && call.Service == "cal.y":
			select {
			case <-g.voteAtY:
			default:
				close(g.voteAtY)
			}
		case slices.Contains(g.holds, call.Method) &&
			(call.Caller == "x" || call.Caller == "y") && !g.arrived[call.Caller]:
			g.arrived[call.Caller], hold = true, true
			if len(g.arrived) == 2 {
				close(g.both)
			}
		}
		g.mu.Unlock()
		if hold {
			<-g.both
			if call.Caller == "y" {
				<-g.voteAtY
			}
		}
		return next(ctx, call)
	}
}

func TestCrossingDeletionsBothReturn(t *testing.T) {
	at, later := slot(day1, 10), slot(day1, 14)
	for _, in := range []struct {
		name string
		x, y func(w *world, a, b *calendar.Meeting) error
		// queue schedules A at x and B at y, each queued where the other
		// holds or will take a slot (nil: queueCrossed); hold names the
		// calls the crossing holds (nil: the link deletions).
		queue func(t *testing.T, w *world) (a, b *calendar.Meeting)
		hold  []string
		skip  string
		// want checks what is specific to the input, once both have returned;
		// waiting is how many waiting rows the devices are left with in all.
		want    func(t *testing.T, w *world, a, b *calendar.Meeting)
		waiting int
	}{
		{
			name: "cancel and cancel",
			x:    func(w *world, a, _ *calendar.Meeting) error { return w.cals["x"].CancelMeeting(ctxBg(), a.ID) },
			y:    func(w *world, _, b *calendar.Meeting) error { return w.cals["y"].CancelMeeting(ctxBg(), b.ID) },
			want: func(t *testing.T, w *world, a, b *calendar.Meeting) {
				for u, c := range w.cals {
					for _, m := range []*calendar.Meeting{a, b} {
						if rec, ok := c.Meeting(m.ID); ok && rec.Status != calendar.StatusCancelled {
							t.Errorf("%s holds %s as %+v, want it cancelled", u, m.Title, rec)
						}
					}
					if got := w.slotMeeting(u, at); got != "" {
						t.Errorf("%s slot = %q, want it free", u, got)
					}
					if all := w.nodes[u].Links.AllLinks(); len(all) != 0 {
						t.Errorf("%s link rows = %+v, want none", u, all)
					}
				}
			},
		},
		{
			name: "dropout and dropout",
			x:    func(w *world, a, _ *calendar.Meeting) error { return w.cals["p1"].DropOut(ctxBg(), a.ID) },
			y:    func(w *world, _, b *calendar.Meeting) error { return w.cals["p2"].DropOut(ctxBg(), b.ID) },
			// Each dropped user's slot went to the other meeting, whose
			// initiator took the vote while its own dropout was under way, and
			// each is queued behind it for the meeting it left.
			waiting: 2,
			want: func(t *testing.T, w *world, a, b *calendar.Meeting) {
				for _, o := range []struct {
					m             *calendar.Meeting
					init, in, out string
				}{{a, "x", "p2", "p1"}, {b, "y", "p1", "p2"}} {
					rec, _ := w.cals[o.init].Meeting(o.m.ID)
					if rec.Status != calendar.StatusTentative || !containsStr(rec.Reserved, o.in) || !containsStr(rec.Missing, o.out) {
						t.Errorf("%s = %+v, want it tentative, holding %s and missing %s", o.m.Title, rec, o.in, o.out)
					}
					if got := w.slotMeeting(o.in, at); got != o.m.ID {
						t.Errorf("%s slot = %q, want %s's", o.in, got, o.m.Title)
					}
					if l, ok := w.nodes[o.in].Links.GetLink(o.m.LinkID); !ok || l.Subtype != links.Permanent {
						t.Errorf("%s's link at %s = %+v, want it permanent", o.m.Title, o.in, l)
					}
					if l, ok := w.nodes[o.out].Links.GetLink(o.m.LinkID); !ok || l.Subtype != links.Tentative {
						t.Errorf("%s's link at %s = %+v, want it tentative", o.m.Title, o.out, l)
					}
				}
			},
		},
		{
			name: "cancel and change of slot",
			x:    func(w *world, a, _ *calendar.Meeting) error { return w.cals["x"].CancelMeeting(ctxBg(), a.ID) },
			y: func(w *world, _, b *calendar.Meeting) error {
				return w.cals["y"].ChangeMeetingSlot(ctxBg(), b.ID, later)
			},
			// The vote for B's old slot is declined: B has moved on from it.
			want: func(t *testing.T, w *world, a, b *calendar.Meeting) {
				moved, _ := w.cals["y"].Meeting(b.ID)
				if moved.Slot != later || moved.Status != calendar.StatusTentative || !containsStr(moved.Reserved, "p2") || !containsStr(moved.Missing, "p1") {
					t.Errorf("B = %+v, want it moved, holding p2 and missing p1", moved)
				}
				if rec, _ := w.cals["x"].Meeting(a.ID); rec.Status != calendar.StatusCancelled {
					t.Errorf("A = %+v, want it cancelled", rec)
				}
				for u, n := range w.nodes {
					if got := w.slotMeeting(u, at); got != "" {
						t.Errorf("%s old slot = %q, want it free", u, got)
					}
					for _, l := range n.Links.AllLinks() {
						if l.ID != moved.LinkID {
							t.Errorf("%s still holds link row %+v", u, l)
						}
					}
				}
				if got := w.slotMeeting("p2", later); got != b.ID {
					t.Errorf("p2 new slot = %q, want B", got)
				}
			},
		},
		{
			name: "confirm and confirm",
			x: func(w *world, a, _ *calendar.Meeting) error {
				_, err := w.cals["x"].TryConfirm(ctxBg(), a.ID)
				return err
			},
			y: func(w *world, _, b *calendar.Meeting) error {
				_, err := w.cals["y"].TryConfirm(ctxBg(), b.ID)
				return err
			},
			queue: queueOnFreeSlots,
			hold:  []string{"Abort"},
			// Each vote finds the other meeting busy and is declined: both
			// stay tentative and queued, and both slots stay free.
			want: func(t *testing.T, w *world, a, b *calendar.Meeting) {
				for _, m := range []*calendar.Meeting{a, b} {
					if rec, _ := w.cals[m.Initiator].Meeting(m.ID); rec.Status != calendar.StatusTentative {
						t.Errorf("%s = %+v, want it tentative", m.Title, rec)
					}
					for _, u := range []string{"p1", "p2"} {
						if l, ok := w.nodes[u].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
							t.Errorf("%s's link at %s = %+v, want it queued", m.Title, u, l)
						}
					}
				}
				for _, u := range []string{"p1", "p2"} {
					if got := w.slotMeeting(u, at); got != "" {
						t.Errorf("%s slot = %q, want it free", u, got)
					}
				}
			},
			skip: "each confirm's Abort offers a slot to the other's meeting, whose lock that confirm holds: " +
				"they wait on each other until a busy meeting declines instead (ROADMAP item 7)",
		},
	} {
		t.Run(in.name, func(t *testing.T) {
			if in.skip != "" {
				t.Skip(in.skip)
			}
			if in.queue == nil {
				in.queue = queueCrossed
			}
			if in.hold == nil {
				in.hold = []string{"DeleteLink", "DeleteLinkLocal"}
			}
			g := &crossing{holds: in.hold, arrived: map[string]bool{}, both: make(chan struct{}), voteAtY: make(chan struct{})}
			w := newWorld(t)
			w.mw = []listener.Middleware{g.middleware}
			for _, u := range []string{"x", "y", "p1", "p2"} {
				w.addUser(u, 0)
			}
			a, b := in.queue(t, w)

			g.mu.Lock()
			g.armed = true
			g.mu.Unlock()
			errs := make(chan error, 2)
			go func() { errs <- in.x(w, a, b) }()
			go func() { errs <- in.y(w, a, b) }()
			// The fake clock never moves: nothing times out its way out of a wait.
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the two ops wait on each other")
				}
			}
			in.want(t, w, a, b)
			waiting := 0
			for u, n := range w.nodes {
				tab, err := n.DB.Table(links.WaitingLinkTable)
				if err != nil {
					t.Fatal(err)
				}
				waiting += tab.Count()
				if l, p, j := n.Links.Locks.Len(), n.Links.PendingMarks(), n.Links.JournalPending(); l != 0 || p != 0 || len(j) != 0 {
					t.Errorf("%s: %d locks, %d pending marks, journal %v left", u, l, p, j)
				}
			}
			if waiting != in.waiting {
				t.Errorf("%d waiting rows left, want %d", waiting, in.waiting)
			}
		})
	}
}

// pinned is a request for the crossing tests' slot with the given musts.
func pinned(title string, must ...string) calendar.Request {
	at := slot(day1, 10)
	return calendar.Request{Title: title, Day: at.Day, Hour: at.Hour, PinSlot: true, Must: must}
}

func setupAt(t *testing.T, w *world, init string, req calendar.Request) *calendar.Meeting {
	t.Helper()
	m, err := w.cals[init].SetupMeeting(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// markLost is a mark fault losing every Mark sent to one of users.
func markLost(users ...string) func(string, links.EntityRef) error {
	return func(_ string, ref links.EntityRef) error {
		if slices.Contains(users, ref.User) {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: mark lost"}
		}
		return nil
	}
}

// queueCrossed: A holds p1 and is queued at p2 (its Mark there is lost);
// B then holds p2 and is queued at p1 behind A.
func queueCrossed(t *testing.T, w *world) (a, b *calendar.Meeting) {
	at := slot(day1, 10)
	w.nodes["x"].Links.SetMarkFault(markLost("p2"))
	a = setupAt(t, w, "x", pinned("A", "p1", "p2"))
	w.nodes["x"].Links.SetMarkFault(nil)
	b = setupAt(t, w, "y", pinned("B", "p1", "p2"))
	for _, q := range []struct {
		user     string
		held, by *calendar.Meeting
	}{{"p1", a, b}, {"p2", b, a}} {
		if got := w.slotMeeting(q.user, at); got != q.held.ID {
			t.Fatalf("%s slot = %q, want %s's", q.user, got, q.held.Title)
		}
		if l, ok := w.nodes[q.user].Links.GetLink(q.by.LinkID); !ok || l.Subtype != links.Tentative {
			t.Fatalf("%s's link at %s = %+v, want it queued", q.by.Title, q.user, l)
		}
	}
	return a, b
}

// queueOnFreeSlots: A and B both wait at p1 and p2, whose slots are free
// (every Mark of their setups is lost). A wants p2 and the quorum of p1
// and r1, B wants p1 and the quorum of p2 and r2, and r1 and r2 are
// busy. So A's confirm marks p1, aborts it for want of r1, and p1 offers
// the slot to B; B's confirm does the same to A through p2. A's own Mark
// at p2, and B's at p1, stay lost.
func queueOnFreeSlots(t *testing.T, w *world) (a, b *calendar.Meeting) {
	at := slot(day1, 10)
	for _, u := range []string{"r1", "r2"} {
		w.addUser(u, 0)
	}
	all := markLost("p1", "p2", "r1", "r2")
	w.nodes["x"].Links.SetMarkFault(all)
	w.nodes["y"].Links.SetMarkFault(all)
	reqA, reqB := pinned("A", "p2"), pinned("B", "p1")
	reqA.OrGroups = []calendar.OrGroup{{Members: []string{"p1", "r1"}, K: 2}}
	reqB.OrGroups = []calendar.OrGroup{{Members: []string{"p2", "r2"}, K: 2}}
	a, b = setupAt(t, w, "x", reqA), setupAt(t, w, "y", reqB)
	w.nodes["x"].Links.SetMarkFault(markLost("p2"))
	w.nodes["y"].Links.SetMarkFault(markLost("p1"))
	for _, u := range []string{"r1", "r2"} {
		if err := w.cals[u].MarkBusy(at, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []string{"p1", "p2"} {
		for _, m := range []*calendar.Meeting{a, b} {
			if l, ok := w.nodes[u].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
				t.Fatalf("%s's link at %s = %+v, want it queued", m.Title, u, l)
			}
		}
		if got := w.slotMeeting(u, at); got != "" {
			t.Fatalf("%s slot = %q, want it free", u, got)
		}
	}
	return a, b
}
