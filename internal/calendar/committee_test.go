package calendar_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestCommitteeNameAndMembers(t *testing.T) {
	w := newWorld(t, "phil", "andy", "suzy")
	cc := calendar.NewCommittee(w.cals["phil"], "andy", "suzy", "andy" /* dup */)
	if got := cc.Name(); got != "Calendars_of_phil+andy+suzy_SyDAppO" {
		t.Fatalf("name = %q", got)
	}
	m := cc.Members()
	if len(m) != 3 || m[0] != "phil" {
		t.Fatalf("members = %v", m)
	}
}

func TestFindEarliestMeetingTime(t *testing.T) {
	w := newWorld(t, "phil", "andy", "suzy")
	// Block the first candidate hours across the members.
	if err := w.cals["phil"].MarkBusy(slot(day1, 9), "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["andy"].MarkBusy(slot(day1, 10), "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["suzy"].MarkBusy(slot(day1, 11), "x", 0); err != nil {
		t.Fatal(err)
	}
	cc := calendar.NewCommittee(w.cals["phil"], "andy", "suzy")
	got, err := cc.FindEarliestMeetingTime(ctxBg(), day1, day1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != slot(day1, 12) {
		t.Fatalf("earliest = %v", got)
	}

	// No common slot at all.
	for _, h := range calendar.DefaultHours {
		_ = w.cals["andy"].MarkBusy(slot(day2, h), "x", 0)
	}
	if _, err := cc.FindEarliestMeetingTime(ctxBg(), day2, day2, nil); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
}

func TestScheduleEarliestAndChangeToNextAvailable(t *testing.T) {
	w := newWorld(t, "phil", "andy", "suzy")
	cc := calendar.NewCommittee(w.cals["phil"], "andy", "suzy")
	m, err := cc.ScheduleEarliest(ctxBg(), "weekly", day1, day2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed || m.Slot != slot(day1, 9) {
		t.Fatalf("m = %+v", m)
	}

	// Andy becomes busy at 10 — the "next available" must skip it.
	if err := w.cals["andy"].MarkBusy(slot(day1, 10), "x", 0); err != nil {
		t.Fatal(err)
	}
	next, err := cc.ChangeMeetingTimeToNextAvailable(ctxBg(), m.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if next != slot(day1, 11) {
		t.Fatalf("next = %v", next)
	}
	// The meeting actually moved everywhere, old slot released.
	for _, u := range []string{"phil", "andy", "suzy"} {
		if got := w.slotMeeting(u, next); got != m.ID {
			t.Fatalf("%s new slot = %q", u, got)
		}
		if got := w.slotMeeting(u, slot(day1, 9)); got != "" {
			t.Fatalf("%s old slot = %q", u, got)
		}
	}
	// Unknown meeting errors.
	if _, err := cc.ChangeMeetingTimeToNextAvailable(ctxBg(), "nope", 3); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

func TestChangeToNextAvailableExhaustedHorizon(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	cc := calendar.NewCommittee(w.cals["phil"], "andy")
	m, err := cc.ScheduleEarliest(ctxBg(), "m", day1, day1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Andy is busy for every later slot in the horizon.
	for _, day := range calendar.DaysBetween(day1, "2003-04-25") {
		for _, h := range calendar.DefaultHours {
			s := slot(day, h)
			if s == m.Slot {
				continue
			}
			_ = w.cals["andy"].MarkBusy(s, "x", 0)
		}
	}
	if _, err := cc.ChangeMeetingTimeToNextAvailable(ctxBg(), m.ID, 3); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
	// Meeting unchanged.
	got, _ := w.cals["phil"].Meeting(m.ID)
	if got.Slot != m.Slot || got.Status != calendar.StatusConfirmed {
		t.Fatalf("meeting moved despite exhausted horizon: %+v", got)
	}
}

// TestChangeToNextAvailableOnlyRetriesConflicts: a move refused as a
// conflict (the slot was taken since the search) goes on to the next
// slot; any other refusal ends the search and is returned as it is.
func TestChangeToNextAvailableOnlyRetriesConflicts(t *testing.T) {
	var armed, taken atomic.Bool
	w := newWorld(t)
	w.wrapNet = onRequests(func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			if armed.Load() && req.Method == "Mark" && req.Service == links.ServiceFor("phil") && taken.CompareAndSwap(false, true) {
				return transport.ErrorResponse(req, wire.CodeConflict, "slot taken since the search")
			}
			return next(ctx, req)
		}
	})
	for _, u := range []string{"phil", "andy"} {
		w.addUser(u, 0)
	}
	m, err := calendar.NewCommittee(w.cals["andy"], "phil").ScheduleEarliest(ctxBg(), "m", day1, day1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// phil takes part but did not initiate: every move is refused.
	if _, err := calendar.NewCommittee(w.cals["phil"], "andy").ChangeMeetingTimeToNextAvailable(ctxBg(), m.ID, 3); wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("a participant's move: err = %v, want %s", err, wire.CodeAuth)
	}
	if got, _ := w.cals["andy"].Meeting(m.ID); got.Slot != m.Slot {
		t.Fatalf("refused move changed the meeting: %+v", got)
	}

	armed.Store(true)
	next, err := calendar.NewCommittee(w.cals["andy"], "phil").ChangeMeetingTimeToNextAvailable(ctxBg(), m.ID, 3)
	if err != nil || !taken.Load() || next != slot(day1, m.Slot.Hour+2) {
		t.Fatalf("move past a slot taken since the search = %v, %v; want %v", next, err, slot(day1, m.Slot.Hour+2))
	}
}

func TestFreeBusyMatrix(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	if err := w.cals["andy"].MarkBusy(slot(day1, 9), "x", 0); err != nil {
		t.Fatal(err)
	}
	cc := calendar.NewCommittee(w.cals["phil"], "andy")
	matrix, err := cc.FreeBusyMatrix(ctxBg(), day1, day1, []int{9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix["phil"]) != 2 {
		t.Fatalf("phil free = %v", matrix["phil"])
	}
	if len(matrix["andy"]) != 1 || matrix["andy"][0] != slot(day1, 10) {
		t.Fatalf("andy free = %v", matrix["andy"])
	}
}
