package calendar_test

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/calendar"
	"repro/internal/store"
)

// TestConfirmedStateIsPathIndependent: one meeting — a's, with musts b
// and c and an or-group of d and e that wants both — confirmed four ways
// leaves the same rows on every device (cal_slots, cal_meetings, SyD_Link
// and SyD_WaitingLink, ids normalised):
//   - direct: every slot is free, so b and c are reserved in one phase
//     and the or-group in two;
//   - TryConfirm after a release: b and c are busy at setup, free their
//     slots while they cannot reach a (their votes never arrive), and a's
//     next round reserves each in one phase;
//   - a vote's promotion: b is busy at setup, so c's Commit carries the
//     record as if b accepted and c is pushed the final one; b's release
//     is its vote;
//   - an or-group's vote: d is busy at setup, so the group (k = 2)
//     reserves nobody; d's release is its vote, which marks e.
//
// The one intended difference: a record lists its reserved users in the
// order they were reserved, so the rendering sorts that list.
func TestConfirmedStateIsPathIndependent(t *testing.T) {
	at := slot(day1, 10)
	req := calendar.Request{
		Title: "review", Day: at.Day, Hour: at.Hour, PinSlot: true, Must: []string{"b", "c"},
		OrGroups: []calendar.OrGroup{{Name: "g", Members: []string{"d", "e"}, K: 2}},
	}
	busy := func(t *testing.T, w *world, users ...string) {
		t.Helper()
		for _, u := range users {
			if err := w.cals[u].MarkBusy(at, "dentist", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	release := func(t *testing.T, w *world, users ...string) {
		t.Helper()
		for _, u := range users {
			if err := w.cals[u].ReleaseSlot(ctxBg(), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	paths := []struct {
		name string
		run  func(t *testing.T, w *world) *calendar.Meeting
	}{
		{"direct", func(t *testing.T, w *world) *calendar.Meeting { return setupAt(t, w, "a", req) }},
		{"TryConfirm after a release", func(t *testing.T, w *world) *calendar.Meeting {
			busy(t, w, "b", "c")
			m := setupAt(t, w, "a", req)
			for _, u := range []string{"b", "c"} {
				w.net.Partition(u, "node-a") // the sim keys a cut by caller and address
			}
			release(t, w, "b", "c")
			for _, u := range []string{"b", "c"} {
				w.net.Heal(u, "node-a")
			}
			if rec, _ := w.cals["a"].Meeting(m.ID); rec.Status != calendar.StatusTentative {
				t.Fatalf("a's record after the unheard releases = %+v, want it tentative", rec)
			}
			if _, err := w.cals["a"].TryConfirm(ctxBg(), m.ID); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"a vote's promotion", func(t *testing.T, w *world) *calendar.Meeting {
			busy(t, w, "b")
			m := setupAt(t, w, "a", req)
			release(t, w, "b")
			return m
		}},
		{"an or-group's vote", func(t *testing.T, w *world) *calendar.Meeting {
			busy(t, w, "d")
			m := setupAt(t, w, "a", req)
			release(t, w, "d")
			return m
		}},
	}
	users := []string{"a", "b", "c", "d", "e"}
	var want string
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld(t, users...)
			m := p.run(t, w)
			if rec, _ := w.cals["a"].Meeting(m.ID); rec.Status != calendar.StatusConfirmed {
				t.Fatalf("a's record = %+v, want it confirmed", rec)
			}
			got := renderState(t, w, meetingIDs(m), sortedReserved(t), users...)
			if want == "" {
				want = got
				return
			}
			if got != want {
				t.Errorf("device state differs from the %s path's\n--- got\n%s--- want\n%s", paths[0].name, got, want)
			}
		})
	}
}

// sortedReserved renders a meeting row's record as recordText does, its
// reserved list sorted.
func sortedReserved(t *testing.T) func(store.Row) string {
	return func(r store.Row) string {
		m := calendar.MeetingOfRow(r)
		m.Reserved = slices.Clone(m.Reserved)
		slices.Sort(m.Reserved)
		raw, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
}
