package calendar_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestMeetingMarkOutlivesLockTTL: a confirm holds its meeting's mark for
// as long as its negotiation runs, whatever the device's clock says. With
// the confirm's Commit to b held and the clock moved past the lock TTL,
// c's vote for the meeting is still declined at once, and a cancel of it
// still waits until the confirm has returned.
func TestMeetingMarkOutlivesLockTTL(t *testing.T) {
	var armed atomic.Bool
	var once sync.Once
	commitAtB, release := make(chan struct{}), make(chan struct{})
	var voteMu sync.Mutex
	var votes []error
	w := newWorld(t)
	w.wrapNet = onRequests(func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			if armed.Load() && req.Method == "Commit" && req.Service == links.ServiceFor("b") {
				once.Do(func() { close(commitAtB); <-release })
			}
			resp := next(ctx, req)
			if req.Method == "SlotAvailable" && req.Args.String("token") != "" {
				voteMu.Lock()
				votes = append(votes, respErr(resp))
				voteMu.Unlock()
			}
			return resp
		}
	})
	for _, u := range []string{"a", "b", "c"} {
		w.addUser(u, 0)
	}
	at := slot(day1, 10)
	// b's Mark is lost and c is at the dentist: the meeting is tentative
	// and queued at both.
	if err := w.cals["c"].MarkBusy(at, "dentist", 0); err != nil {
		t.Fatal(err)
	}
	w.loseMarks("a", "b")
	m := setupAt(t, w, "a", pinned("M", "b", "c"))
	w.loseMarks("a")
	if m.Status != calendar.StatusTentative {
		t.Fatalf("M = %+v, want it tentative", m)
	}

	armed.Store(true)
	confirmed := make(chan error, 1)
	go func() {
		_, err := w.cals["a"].TryConfirm(ctxBg(), m.ID)
		confirmed <- err
	}()
	<-commitAtB
	w.clk.Advance(markTTL + time.Second)
	if n := w.nodes["a"].Links.Locks.Len(); n != 1 {
		t.Errorf("a holds %d locks past the TTL, want the meeting's mark", n)
	}

	// c's slot comes free, and its vote finds the meeting busy.
	if err := w.cals["c"].ReleaseSlot(ctxBg(), at); err != nil {
		t.Fatal(err)
	}
	voteMu.Lock()
	if len(votes) != 1 || wire.CodeOf(votes[0]) != wire.CodeConflict {
		t.Errorf("c's vote was answered %v, want it declined as busy", votes)
	}
	voteMu.Unlock()
	if l, ok := w.nodes["c"].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
		t.Errorf("M's link at c = %+v, want it still queued", l)
	}

	cancelled := make(chan error, 1)
	go func() { cancelled <- w.cals["a"].CancelMeeting(ctxBg(), m.ID) }()
	select {
	case err := <-cancelled:
		t.Fatalf("the cancel returned (%v) while the confirm holds the meeting", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-confirmed; err != nil {
		t.Fatal(err)
	}
	if err := <-cancelled; err != nil {
		t.Fatal(err)
	}
	for u, c := range w.cals {
		if rec, ok := c.Meeting(m.ID); !ok || rec.Status != calendar.StatusCancelled {
			t.Errorf("%s holds M as %+v, want it cancelled", u, rec)
		}
		if got := w.slotMeeting(u, at); got != "" {
			t.Errorf("%s slot = %q, want it free", u, got)
		}
		if n, p := w.nodes[u].Links.Locks.Len(), w.nodes[u].Links.PendingMarks(); n != 0 || p != 0 {
			t.Errorf("%s has %d locks and %d pending marks left", u, n, p)
		}
	}
}

// TestNoMeetingStateLeftAfterCancel: a meeting's mark is an entry in the
// lock table only while an op on it runs. After N meetings are set up,
// confirmed and cancelled, the initiator's table holds no entry, live or
// expired.
func TestNoMeetingStateLeftAfterCancel(t *testing.T) {
	const n = 20
	w := newWorld(t, "a", "b")
	locks := w.nodes["a"].Links.Locks
	before, start := locks.Stats().Acquired, w.clk.Now()
	for i := 0; i < n; i++ {
		m := setupAt(t, w, "a", pinned("M", "b"))
		if _, err := w.cals["a"].TryConfirm(ctxBg(), m.ID); err != nil {
			t.Fatal(err)
		}
		if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := locks.Stats().Acquired - before; got < 2*n {
		t.Fatalf("a granted %d locks for %d confirms and cancels, want each to mark its meeting", got, n)
	}
	// The clock has not moved, so no entry has expired: Len counts them all.
	if live := locks.Len(); live != 0 || !w.clk.Now().Equal(start) {
		t.Errorf("a's lock table holds %d entries after %d cancelled meetings, want none", live, n)
	}
}
