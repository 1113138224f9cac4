package calendar_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/wire"
)

// pushRecord sends m to user's device as its initiator would: one
// MeetingUpdate carrying the typed record. It returns the text the
// initiator stores for m, which the receiver must store too.
func pushRecord(t *testing.T, w *world, user string, m calendar.Meeting) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	err = w.nodes[m.Initiator].Engine.Invoke(ctxBg(), calendar.ServiceFor(user), "MeetingUpdate", wire.Args{wire.Sub("rec", calendar.RecordArgs(&m))}, nil)
	if err != nil {
		t.Fatalf("push to %s: %v", user, err)
	}
	return string(raw)
}

// TestAcceptRecord: a pushed record is stored as sent whoever it is for,
// and only a live record that wants this user, does not hold them
// reserved and has a link id makes the user queue a tentative back link —
// once.
func TestAcceptRecord(t *testing.T) {
	base := calendar.Meeting{
		ID: "M-accept", LinkID: "L-accept",
		Title: "review", Initiator: "a", Slot: slot(day1, 10), Status: calendar.StatusTentative,
		Must: []string{"b"}, Reserved: []string{"a"}, Missing: []string{"b"},
	}
	cases := []struct {
		name     string
		to       string
		record   func(m *calendar.Meeting)
		wantLink bool
	}{
		{"unreserved must", "b", func(*calendar.Meeting) {}, true},
		{"unreserved supervisor", "b", func(m *calendar.Meeting) { m.Must, m.Supervisors = nil, []string{"b"} }, true},
		{"unreserved or-group member", "b", func(m *calendar.Meeting) {
			m.Must, m.Missing = nil, nil
			m.OrGroups = []calendar.OrGroup{{Name: "g", Members: []string{"b", "c"}, K: 1}}
		}, true},
		{"listed in Reserved", "b", func(m *calendar.Meeting) {
			m.Reserved, m.Missing, m.Status = []string{"a", "b"}, nil, calendar.StatusConfirmed
		}, false},
		{"cancelled", "b", func(m *calendar.Meeting) { m.Status, m.Reserved = calendar.StatusCancelled, nil }, false},
		{"offline stub without a link id", "b", func(m *calendar.Meeting) { m.LinkID = "" }, false},
		{"the initiator's own record", "a", func(m *calendar.Meeting) { m.Reserved = nil }, false},
		{"not a participant", "b", func(m *calendar.Meeting) { m.Must, m.Missing = []string{"c"}, []string{"c"} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, "a", "b", "c")
			m := base
			tc.record(&m)
			// Twice: a re-sent push (a retry, a pulled record after a direct
			// delivery) must leave one record and at most one link row.
			pushRecord(t, w, tc.to, m)
			w.clk.Advance(time.Minute)
			sent := pushRecord(t, w, tc.to, m)

			if got := rawRecord(t, w, tc.to, m.ID); got != sent {
				t.Errorf("record = %s\nwant it as sent: %s", got, sent)
			}
			if n := len(w.cals[tc.to].Meetings()); n != 1 {
				t.Errorf("%d records, want 1", n)
			}
			all := w.linkRows(tc.to)
			if !tc.wantLink {
				if len(all) != 0 {
					t.Fatalf("link rows = %+v, want none", all)
				}
				return
			}
			want := links.Link{
				ID: m.LinkID, Group: m.ID, Type: links.Negotiation, Subtype: links.Tentative, Constraint: links.And,
				Owner:   links.EntityRef{User: "b", Entity: m.Slot.Entity()},
				Targets: []links.EntityRef{{User: "a", Entity: m.Slot.Entity()}},
			}
			if len(all) != 1 {
				t.Fatalf("link rows = %+v, want one", all)
			}
			got := *all[0]
			if got.Created.Equal(w.clk.Now()) {
				t.Errorf("link created at the second push (%s), want the first one's row kept", got.Created)
			}
			if tr := got.Triggers; len(tr) != 1 || tr[0].Event != "avail" || tr[0].Action != calendar.ActionReserve || tr[0].Method != "SlotAvailable" {
				t.Errorf("triggers = %+v, want the one avail trigger that votes", tr)
			}
			got.Created, got.Triggers = time.Time{}, nil
			if a, b := mustJSON(t, got), mustJSON(t, want); a != b {
				t.Errorf("link = %s\nwant   %s", a, b)
			}
			if w.slotMeeting("b", m.Slot) != "" {
				t.Errorf("queueing the link took the slot: %q", w.slotMeeting("b", m.Slot))
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestAcceptRecordLeavesBumpedRowAlone: the device whose slot was bumped
// re-queues the bumped meeting's link itself, waiting on nothing (the
// bumping meeting's link is not installed yet). The record its initiator
// then publishes, and any later copy, must not rebuild that row — a
// rebuilt one would wait on the bumping meeting's link.
func TestAcceptRecordLeavesBumpedRowAlone(t *testing.T) {
	w := newWorld(t, "a", "b", "x")
	low, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9, AllowBump: true,
	}); err != nil {
		t.Fatal(err)
	}
	bumped, _ := w.cals["a"].Meeting(low.ID)
	if bumped.Status != calendar.StatusTentative || containsStr(bumped.Reserved, "b") {
		t.Fatalf("bumped meeting at a = %+v, want tentative without b", bumped)
	}
	for _, when := range []string{"after the bump's own publish", "after a later push"} {
		l, ok := w.nodes["b"].Links.GetLink(low.LinkID)
		if !ok || l.Subtype != links.Tentative || l.WaitingOn != "" {
			t.Fatalf("%s: b's row for the bumped meeting = %+v, want the re-queued tentative row waiting on nothing", when, l)
		}
		if n := len(w.linkRows("b")); n != 2 {
			t.Fatalf("%s: b holds %d link rows, want 2", when, n)
		}
		pushRecord(t, w, "b", *bumped)
	}
}

// TestAcceptRecordAfterChangeSlot: a participant still missing when its
// meeting moves loses the link it queued at the old slot to the cascade
// and queues one under the new link id at the new slot when the moved
// record reaches it.
func TestAcceptRecordAfterChangeSlot(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	if err := w.cals["b"].MarkBusy(slot(day1, 10), "dentist", 0); err != nil {
		t.Fatal(err)
	}
	m := setupBC(t, w)
	if l, ok := w.nodes["b"].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Tentative {
		t.Fatalf("b's link before the move = %+v", l)
	}
	if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), m.ID, slot(day1, 14)); err != nil {
		t.Fatal(err)
	}
	moved, _ := w.cals["a"].Meeting(m.ID)
	if moved.LinkID == m.LinkID || moved.Status != calendar.StatusTentative {
		t.Fatalf("moved meeting = %+v", moved)
	}
	all := w.linkRows("b")
	if len(all) != 1 || all[0].ID != moved.LinkID || all[0].Subtype != links.Tentative ||
		all[0].Owner.Entity != slot(day1, 14).Entity() {
		t.Fatalf("b's link rows after the move = %+v, want one tentative %s at the new slot", all, moved.LinkID)
	}
	if got := rawRecord(t, w, "b", m.ID); got != rawRecord(t, w, "a", m.ID) {
		t.Fatalf("b's record = %s, want the moved one", got)
	}
}
