package calendar_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A slot that comes free is locked for its best waiter where it came
// free, and the waiter's initiator hears that as a vote and goes
// straight to Commit. These tests hold that to "a slot has one writer":
// against a schedule that wants the same slot at the same moment, and
// with the vote, its answer, the Commit or the voter itself lost.

// windowLog is a device log that calls open once, after the unit that
// deletes a link row is applied and before anything that unit queued is
// sent: the moment the freed slot is there to be taken.
type windowLog struct{ open func() }

func (windowLog) LogDDLTable(store.Schema) store.Ack   { return nil }
func (windowLog) LogDDLIndex(string, string) store.Ack { return nil }
func (l windowLog) LogTx(ops []store.LoggedOp) store.Ack {
	for _, op := range ops {
		if op.Table == links.LinkTable && op.Op == store.OpDelete {
			return func() error { l.open(); return nil }
		}
	}
	return nil
}

// TestDoubleBookingPromoteVsMark: u holds 10:00 for B, A is tentative
// behind it, and C's schedule wants u at 10:00 just as B is cancelled.
// Whoever gets the slot's lock first gets the slot, whole: one meeting
// in cal_slots, only that one listing u reserved, one permanent back
// link, the loser queued behind it. C wants u and w as an or-group that
// wants both, so its reserve marks them.
func TestDoubleBookingPromoteVsMark(t *testing.T) {
	both := []calendar.OrGroup{{Members: []string{"u", "w"}, K: 2}}
	for _, o := range []bookingOrder{
		// C's Mark lands once B's link is gone and the slot is free, before
		// anything is promoted: it finds the slot locked for A.
		{name: "the offer's lock first", groups: both, inWindow: true, wantAtU: "A"},
		// C holds u's slot lock before the cancel arrives (it may bump B), so
		// the deletion can lock the slot for nobody.
		{name: "C's Mark first", groups: both, prio: 9, bump: true, wantAtU: "C", wantMarkC: true},
	} {
		t.Run(o.name, func(t *testing.T) { doubleBooking(t, o) })
	}
}

// TestDoubleBookingPromoteVsOnePhaseCommit: the same race when C wants u
// and w as musts, each reserved in one phase by a Commit alone. A Commit
// that lands at u in the window B's deletion opens finds the slot locked
// for A and is refused; one applied before the cancel bumps B, and A
// stays queued behind C.
func TestDoubleBookingPromoteVsOnePhaseCommit(t *testing.T) {
	musts := []string{"u", "w"}
	for _, o := range []bookingOrder{
		{name: "the offer's lock first", must: musts, inWindow: true, wantAtU: "A"},
		{name: "C's Commit first", must: musts, prio: 9, bump: true, wantAtU: "C"},
	} {
		t.Run(o.name, func(t *testing.T) { doubleBooking(t, o) })
	}
}

// bookingOrder is one input of doubleBooking: C's request on top of "at
// 10:00", and whether it is sent before the cancel or in the window its
// deletion opens at u.
type bookingOrder struct {
	name      string
	must      []string
	groups    []calendar.OrGroup
	prio      int
	bump      bool
	inWindow  bool
	wantAtU   string // "A" or "C"
	wantMarkC bool   // C's mark is granted at u
}

func doubleBooking(t *testing.T, o bookingOrder) {
	// parked is closed once u has answered C's first request (a Mark, or a
	// one-phase Commit). C's record reaches u only once release is closed.
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w := newWorld(t)
	w.wrapNet = onRequests(func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			if req.Caller == "c" && req.Service == calendar.ServiceFor("u") && req.Method == "MeetingUpdate" {
				<-release
			}
			resp := next(ctx, req)
			if req.Caller == "c" && req.Service == links.ServiceFor("u") && (req.Method == "Mark" || req.Method == "Commit") {
				once.Do(func() { close(parked) })
			}
			return resp
		}
	})
	for _, u := range []string{"a", "b", "c", "u", "w"} {
		w.addUser(u, 0)
	}
	at := slot(day1, 10)
	schedule := func(init, title string, req calendar.Request) *calendar.Meeting {
		t.Helper()
		req.Title, req.Day, req.Hour, req.PinSlot = title, at.Day, at.Hour, true
		m, err := w.cals[init].SetupMeeting(ctxBg(), req)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mb := schedule("b", "B", calendar.Request{Must: []string{"u"}})
	ma := schedule("a", "A", calendar.Request{Must: []string{"u"}})
	if l, ok := w.nodes["u"].Links.GetLink(ma.LinkID); !ok || l.WaitingOn != mb.LinkID {
		t.Fatalf("A's link at u = %+v, want it waiting on B's", l)
	}

	// A two-phase C is held before its Commits, its marks granted or
	// refused; a one-phase C, which has no marks, runs on, and one sent
	// before the cancel runs to its end first.
	switch {
	case o.groups != nil:
		w.nodes["c"].Links.SetCommitFault(func(string, links.EntityRef) error {
			<-release
			return nil
		})
	case !o.inWindow:
		close(release)
	}
	var mc *calendar.Meeting
	done := make(chan struct{})
	startC := func() {
		go func() {
			defer close(done)
			var err error
			mc, err = w.cals["c"].SetupMeeting(ctxBg(), calendar.Request{
				Title: "C", Day: at.Day, Hour: at.Hour, PinSlot: true,
				Must: o.must, OrGroups: o.groups, Priority: o.prio, AllowBump: o.bump,
			})
			if err != nil {
				t.Errorf("C: %v", err)
			}
		}()
		<-parked
		if o.groups == nil && !o.inWindow {
			<-done
		}
	}
	if o.inWindow {
		w.nodes["u"].DB.SetLogger(windowLog{open: sync.OnceFunc(startC)})
	} else {
		startC()
	}

	if err := w.cals["b"].CancelMeeting(ctxBg(), mb.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	default:
		t.Fatal("B's cancel never deleted a link row at u")
	}
	// The promotion has run, and the only lock that can be left at u
	// is C's mark. While it holds the slot's lock, nobody else may
	// have written the slot.
	held := w.nodes["u"].Links.Locks.Len() == 1
	if got := w.slotMeeting("u", at); held && got != "" {
		t.Errorf("u's slot reads %q while C's mark holds its lock: written without the lock", got)
	}
	if held != o.wantMarkC {
		t.Errorf("C's mark at u granted = %v, want %v", held, o.wantMarkC)
	}
	if o.groups != nil || o.inWindow {
		close(release)
	}
	<-done
	if mc == nil {
		t.FailNow()
	}

	win, lose := ma, mc
	if o.wantAtU == "C" {
		win, lose = mc, ma
	}
	if got := w.slotMeeting("u", at); got != win.ID {
		t.Errorf("u's slot = %q, want %s's %s", got, o.wantAtU, win.ID)
	}
	for _, m := range []*calendar.Meeting{win, lose} {
		rec, _ := w.cals[m.Initiator].Meeting(m.ID)
		if got, want := containsStr(rec.Reserved, "u"), m == win; got != want {
			t.Errorf("%s lists u reserved = %v, want %v (%+v)", m.Title, got, want, rec)
		}
		if m == lose && (rec.Status != calendar.StatusTentative || !wantsUser(rec, "u")) {
			t.Errorf("the loser %s = %+v, want it tentative with u missing", m.Title, rec)
		}
	}
	for _, l := range w.linkRows("u") {
		switch {
		case l.ID == win.LinkID && l.Subtype == links.Permanent:
		case l.ID == lose.LinkID && l.Subtype == links.Tentative && l.WaitingOn == win.LinkID:
		default:
			t.Errorf("u's link row %+v: want %s's permanent and %s's tentative, waiting on it", l, win.Title, lose.Title)
		}
	}
	if n := len(w.linkRows("u")); n != 2 {
		t.Errorf("u holds %d link rows, want 2", n)
	}
	for u, n := range w.nodes {
		if l, p, j := n.Links.Locks.Len(), n.Links.PendingMarks(), n.Links.JournalPending(); l != 0 || p != 0 || len(j) != 0 {
			t.Errorf("%s: %d locks, %d pending marks, journal %v left", u, l, p, j)
		}
	}
}

// wantsUser reports whether m still wants user: as a missing must or
// supervisor, or as a member of an or-group (one m does not hold).
func wantsUser(m *calendar.Meeting, user string) bool {
	if containsStr(m.Missing, user) {
		return true
	}
	for _, g := range m.OrGroups {
		if containsStr(g.Members, user) && !containsStr(m.Reserved, user) {
			return true
		}
	}
	return false
}

// TestPromotionRacesSchedules: one canceller, then two at once, against
// four schedulers on three users' one day. After every round no (user,
// slot) is held by two live meetings, every slot row is its meeting's, and
// every user a tentative meeting misses holds that meeting's tentative link.
func TestPromotionRacesSchedules(t *testing.T) {
	for _, cancellers := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d cancelling", cancellers), func(t *testing.T) { promotionRacesSchedules(t, cancellers) })
	}
}

func promotionRacesSchedules(t *testing.T, cancellers int) {
	users := []string{"a", "b", "c"}
	w := newWorld(t, users...)
	rng := rand.New(rand.NewSource(21))
	type live struct{ init, id string }
	var open []live
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		// The cancellers share out the oldest meetings, each taking its own
		// one after the other.
		cancel := open[:len(open)*2/3]
		open = open[len(cancel):]
		for k := 0; k < cancellers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := k; i < len(cancel); i += cancellers {
					if err := w.cals[cancel[i].init].CancelMeeting(ctxBg(), cancel[i].id); err != nil {
						t.Errorf("round %d: cancel %s: %v", round, cancel[i].id, err)
					}
				}
			}()
		}
		for s := 0; s < 4; s++ {
			init, hour := users[rng.Intn(len(users))], 9+rng.Intn(9)
			var must []string
			for _, u := range users {
				if u != init {
					must = append(must, u)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := w.cals[init].SetupMeeting(ctxBg(), calendar.Request{
					Title: "race", Day: day1, Hour: hour, PinSlot: true, Must: must,
				})
				if err != nil {
					return // the initiator's own hour is taken
				}
				mu.Lock()
				open = append(open, live{init, m.ID})
				mu.Unlock()
			}()
		}
		wg.Wait()

		held := map[string]string{} // user@slot -> meeting
		for _, o := range open {
			m, ok := w.cals[o.init].Meeting(o.id)
			if !ok || m.Status == calendar.StatusCancelled {
				t.Fatalf("round %d: open meeting %s = %+v", round, o.id, m)
			}
			for _, u := range m.Reserved {
				key := fmt.Sprintf("%s@%s", u, m.Slot)
				if other, taken := held[key]; taken {
					t.Fatalf("round %d: %s is held by %s and by %s", round, key, other, m.ID)
				}
				held[key] = m.ID
				if got := w.slotMeeting(u, m.Slot); got != m.ID {
					t.Fatalf("round %d: %s reads %q, its holder's record says %s", round, key, got, m.ID)
				}
			}
			for _, u := range m.Missing {
				if l, ok := w.nodes[u].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
					t.Fatalf("round %d: tentative %s misses %s, whose link is %+v", round, m.ID, u, l)
				}
			}
		}
		for _, u := range users {
			if n, p := w.nodes[u].Links.Locks.Len(), w.nodes[u].Links.PendingMarks(); n != 0 || p != 0 {
				t.Fatalf("round %d: %s has %d locks and %d pending marks left", round, u, n, p)
			}
		}
		if busy := 9*len(users) - freeCount(w, users); busy != len(held) {
			t.Fatalf("round %d: %d slots are busy, %d are held by an open meeting", round, busy, len(held))
		}
	}
}

func freeCount(w *world, users []string) int {
	n := 0
	for _, u := range users {
		n += len(w.cals[u].FreeSlots(day1, day1, nil))
	}
	return n
}

// tentativeBehindDentist schedules a's meeting with b and c at day1
// 10:00 while b is at the dentist: tentative, b's link queued at its slot.
func tentativeBehindDentist(t *testing.T, w *world) *calendar.Meeting {
	t.Helper()
	if err := w.cals["b"].MarkBusy(slot(day1, 10), "dentist", 0); err != nil {
		t.Fatal(err)
	}
	m := setupBC(t, w)
	if m.Status != calendar.StatusTentative {
		t.Fatalf("status = %s, want tentative", m.Status)
	}
	return m
}

// wantQueued holds b to what an unreserved participant holds: a free
// slot, its tentative link, and no lock or mark.
func wantQueued(t *testing.T, w *world, m *calendar.Meeting) {
	t.Helper()
	if got := w.slotMeeting("b", m.Slot); got != "" {
		t.Errorf("b slot = %q, want it free", got)
	}
	if l, ok := w.nodes["b"].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
		t.Errorf("b link = %+v, want it tentative", l)
	}
	if n, p := w.nodes["b"].Links.Locks.Len(), w.nodes["b"].Links.PendingMarks(); n != 0 || p != 0 {
		t.Errorf("b has %d locks and %d pending marks left", n, p)
	}
}

// confirmedRecord is the record the vote's Commit carries: b reserved too.
func confirmedRecord(t *testing.T, m *calendar.Meeting) string {
	t.Helper()
	d := *m
	d.Reserved, d.Missing, d.Status = []string{"a", "c", "b"}, nil, calendar.StatusConfirmed
	return mustJSON(t, d)
}

// TestLostVoteLeavesTheLinkQueued: the vote never reaches the initiator.
// The voter lets go of its mark at once, decided aborted; its sweep has
// nothing left to resolve, the link is tentative as before, and the
// slot's next release votes again.
func TestLostVoteLeavesTheLinkQueued(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	m := tentativeBehindDentist(t, w)
	w.net.PartitionOneWay("b", "node-a") // src is the caller, dst its address
	if err := w.cals["b"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
		t.Fatal(err)
	}
	wantQueued(t, w, m)
	w.net.Heal("b", "node-a")
	if n := w.nodes["b"].Links.ResolvePendingMarks(ctxBg(), w.clk.Now()); n != 0 {
		t.Errorf("b's sweep resolved %d marks, want none left to resolve", n)
	}
	if got, _ := w.cals["a"].Meeting(m.ID); got.Status != calendar.StatusTentative {
		t.Fatalf("a's meeting = %+v, want it still tentative", got)
	}

	if err := w.cals["b"].MarkBusy(m.Slot, "dentist", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["b"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
		t.Fatal(err)
	}
	wantInstalled(t, w, "b", m, confirmedRecord(t, m))
}

// TestLostVoteReplyInstallsOnce: the initiator takes the vote and decides,
// and what is lost is on the way back.
func TestLostVoteReplyInstallsOnce(t *testing.T) {
	// The answer to the vote is lost. The Commit has landed by then, and
	// the voter's letting go finds its token decided already.
	t.Run("reply", func(t *testing.T) {
		w := newWorld(t, "b", "c")
		w.wrapNet = onRequests(func(next transport.HandlerFunc) transport.HandlerFunc {
			return func(ctx context.Context, req *transport.Request) transport.Response {
				resp := next(ctx, req)
				if req.Method == "SlotAvailable" && resp.OK {
					return transport.ErrorResponse(req, wire.CodeUnavailable, "injected: reply lost")
				}
				return resp
			}
		})
		w.addUser("a", 0)
		m := tentativeBehindDentist(t, w)
		if err := w.cals["b"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
			t.Fatal(err)
		}
		wantInstalled(t, w, "b", m, confirmedRecord(t, m))
		if n, p := w.nodes["b"].Links.Locks.Len(), w.nodes["b"].Links.PendingMarks(); n != 0 || p != 0 {
			t.Errorf("b has %d locks and %d pending marks left", n, p)
		}
		if got, _ := w.cals["a"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
			t.Errorf("a's meeting = %+v, want it confirmed", got)
		}
	})
	// The Commit is lost. The vote is a pending mark like any other: the
	// voter's sweep asks the initiator and installs from its answer, or
	// the initiator's journal redrives the Commit, whichever comes first,
	// and the other finds it done.
	for _, first := range []string{"the voter's sweep", "the journal"} {
		t.Run("commit, then "+first, func(t *testing.T) {
			w := newWorld(t, "a", "b", "c")
			m := tentativeBehindDentist(t, w)
			commitsLostTo(w, "b")
			if err := w.cals["b"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
				t.Fatal(err)
			}
			if n, p := w.nodes["b"].Links.Locks.Len(), w.nodes["b"].Links.PendingMarks(); n != 1 || p != 1 {
				t.Fatalf("b has %d locks and %d pending marks, want its vote pinned", n, p)
			}
			w.nodes["a"].Links.SetCommitFault(nil)
			if first == "the journal" {
				retryCommits(t, w)
			}
			if n := w.nodes["b"].Links.ResolvePendingMarks(ctxBg(), w.clk.Now()); (n == 1) != (first != "the journal") {
				t.Errorf("b's sweep resolved %d marks", n)
			}
			if first != "the journal" {
				retryCommits(t, w)
			}
			wantInstalled(t, w, "b", m, confirmedRecord(t, m))
			if n, p := w.nodes["b"].Links.Locks.Len(), w.nodes["b"].Links.PendingMarks(); n != 0 || p != 0 {
				t.Errorf("b has %d locks and %d pending marks left", n, p)
			}
			confirmAndCompare(t, w, m)
		})
	}
}

// TestVoterCrashBetweenVoteAndCommit: b votes, the initiator decides, and
// b loses power before the Commit arrives: lock and pending mark are
// gone. The redriven Commit takes the late-commit path on the device that
// comes back from its log, as it does for a mark the initiator asked
// for: the slot is locked and checked again, and slot, link and record
// land together or not at all.
func TestVoterCrashBetweenVoteAndCommit(t *testing.T) {
	for _, taken := range []bool{false, true} {
		t.Run(fmt.Sprintf("slot taken meanwhile=%v", taken), func(t *testing.T) {
			w := newWorld(t, "a", "c")
			dir := t.TempDir()
			w.addDurable("b", dir)
			m := tentativeBehindDentist(t, w)
			commitsLostTo(w, "b")
			if err := w.cals["b"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
				t.Fatal(err)
			}
			w.crashAndRestart("b", dir)
			if n, p := w.nodes["b"].Links.Locks.Len(), w.nodes["b"].Links.PendingMarks(); n != 0 || p != 0 {
				t.Fatalf("b came back with %d locks and %d pending marks", n, p)
			}
			if taken {
				if err := w.cals["b"].MarkBusy(m.Slot, "dentist again", 0); err != nil {
					t.Fatal(err)
				}
			}
			w.nodes["a"].Links.SetCommitFault(nil)
			retryCommits(t, w)
			if !taken {
				wantInstalled(t, w, "b", m, confirmedRecord(t, m))
				return
			}
			if got := w.slotMeeting("b", m.Slot); got != "personal:dentist again" {
				t.Errorf("b slot = %q, want the appointment", got)
			}
			if l, ok := w.nodes["b"].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
				t.Errorf("b link = %+v, want it still tentative", l)
			}
			if got, want := rawRecord(t, w, "b", m.ID), rawRecord(t, w, "a", m.ID); got != want {
				t.Errorf("b record = %s\nwant the initiator's %s", got, want)
			}
		})
	}
}
