package calendar_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/calendar"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestSchedulingStorm runs many concurrent initiators competing for a
// tight slot window and then checks global invariants:
//
//   - every slot on every device is held by at most one meeting (the
//     store enforces this locally; the invariant here is that the
//     holder is a *consistent* meeting — its record exists and lists
//     the device's user as reserved);
//   - no entity locks are leaked after the storm;
//   - confirmed meetings have every must-attendee actually holding
//     the slot on their own device.
func TestSchedulingStorm(t *testing.T) {
	const (
		nUsers    = 10
		nMeetings = 24
		fanout    = 3
	)
	users := workload.Users(nUsers)
	w := newWorld(t, users...)
	plans := workload.MakeMeetingPlans(users, nMeetings, fanout, 77)
	ctx := context.Background()

	var wg sync.WaitGroup
	meetingIDs := make([]string, nMeetings)
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p workload.MeetingPlan) {
			defer wg.Done()
			// One narrow day so the initiators genuinely contend.
			m, err := w.cals[p.Initiator].SetupMeeting(ctx, calendar.Request{
				Title: "storm", FromDay: day1, ToDay: day1,
				Must: p.Participants, Priority: p.Priority,
			})
			if err == nil {
				meetingIDs[i] = m.ID
			}
		}(i, p)
	}
	wg.Wait()

	// Invariant: no leaked locks anywhere.
	for _, u := range users {
		if n := w.cals[u].Links().Locks.Len(); n != 0 {
			t.Fatalf("%s has %d leaked locks", u, n)
		}
	}

	// Invariant: every held slot belongs to a known meeting that
	// lists the holder, and confirmed meetings are fully reserved.
	scheduled := 0
	for i, p := range plans {
		id := meetingIDs[i]
		if id == "" {
			continue // contention loss; fine
		}
		scheduled++
		m, ok := w.cals[p.Initiator].Meeting(id)
		if !ok {
			t.Fatalf("meeting %s vanished", id)
		}
		switch m.Status {
		case calendar.StatusConfirmed:
			for _, u := range append([]string{p.Initiator}, p.Participants...) {
				if got := w.slotMeeting(u, m.Slot); got != m.ID {
					t.Fatalf("confirmed %s: %s slot holds %q", m.ID, u, got)
				}
				if !containsStr(m.Reserved, u) {
					t.Fatalf("confirmed %s: %s not in reserved %v", m.ID, u, m.Reserved)
				}
			}
		case calendar.StatusTentative:
			// Reserved members hold the slot; missing ones don't.
			for _, u := range m.Reserved {
				if got := w.slotMeeting(u, m.Slot); got != m.ID {
					t.Fatalf("tentative %s: reserved %s slot holds %q", m.ID, u, got)
				}
			}
			for _, u := range m.Missing {
				if got := w.slotMeeting(u, m.Slot); got == m.ID {
					t.Fatalf("tentative %s: missing %s still holds the slot", m.ID, u)
				}
			}
		default:
			t.Fatalf("meeting %s in state %s after storm", m.ID, m.Status)
		}
	}
	if scheduled == 0 {
		t.Fatal("storm scheduled nothing")
	}

	// Every occupied slot maps back to a meeting record somewhere.
	for _, u := range users {
		for _, s := range allSlots(day1) {
			holder := w.slotMeeting(u, s)
			if holder == "" || len(holder) >= 9 && holder[:9] == "personal:" {
				continue
			}
			if _, ok := w.cals[u].Meeting(holder); !ok {
				t.Fatalf("%s slot %v held by unknown meeting %q", u, s, holder)
			}
		}
	}

	// And the system still works: cancel everything, slots drain.
	for i, p := range plans {
		if meetingIDs[i] == "" {
			continue
		}
		m, ok := w.cals[p.Initiator].Meeting(meetingIDs[i])
		if !ok || m.Status == calendar.StatusCancelled {
			continue
		}
		if err := w.cals[p.Initiator].CancelMeeting(ctx, m.ID); err != nil {
			t.Fatalf("cancel %s: %v", m.ID, err)
		}
	}
	for _, u := range users {
		for _, s := range allSlots(day1) {
			if got := w.slotMeeting(u, s); got != "" {
				t.Fatalf("%s slot %v still %q after draining", u, s, got)
			}
		}
	}
}

// TestConcurrentMutationsOfOneMeeting hammers a single meeting with
// concurrent dropouts, re-confirms, and delegations; the meeting's mark
// must keep the record consistent (reserved/missing disjoint, no
// lost participants). Then a cancel races a vote for the same meeting: the
// vote is committed before the cancel is decided, or declined because it
// is, and either way the voter is left holding nothing of the meeting.
func TestConcurrentMutationsOfOneMeeting(t *testing.T) {
	users := []string{"a", "b", "c", "d", "e"}
	w := newWorld(t)
	var voteMu sync.Mutex
	var votes []error
	w.wrapNet = onRequests(func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			resp := next(ctx, req)
			if req.Method == "SlotAvailable" && req.Args.String("token") != "" {
				voteMu.Lock()
				votes = append(votes, respErr(resp))
				voteMu.Unlock()
			}
			return resp
		}
	})
	for _, u := range users {
		w.addUser(u, 0)
	}
	ctx := context.Background()
	m, err := w.cals["a"].SetupMeeting(ctx, calendar.Request{
		Title: "contested", Day: day1, Hour: 10, PinSlot: true,
		Must: []string{"b", "c", "d", "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s", m.Status)
	}

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, u := range []string{"b", "c", "d"} {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				_ = w.cals[u].DropOut(ctx, m.ID) // may conflict; fine
			}(u)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = w.cals["a"].TryConfirm(ctx, m.ID)
		}()
		go func() {
			defer wg.Done()
			_ = w.cals["a"].Delegate(ctx, m.ID, "e")
		}()
		wg.Wait()
	}
	// Converge: one final confirm attempt.
	final, err := w.cals["a"].TryConfirm(ctx, m.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Consistency: reserved and missing are disjoint and cover no
	// duplicates; every reserved user actually holds the slot.
	seen := map[string]int{}
	for _, u := range final.Reserved {
		seen[u]++
	}
	for _, u := range final.Missing {
		seen[u] += 10
	}
	for u, v := range seen {
		if v != 1 && v != 10 {
			t.Fatalf("user %s appears inconsistently (code %d): reserved=%v missing=%v",
				u, v, final.Reserved, final.Missing)
		}
	}
	for _, u := range final.Reserved {
		if got := w.slotMeeting(u, m.Slot); got != m.ID {
			t.Fatalf("reserved %s slot = %q", u, got)
		}
	}
	if final.Status == calendar.StatusConfirmed && !final.Satisfied() {
		t.Fatalf("confirmed but not satisfied: %+v", final)
	}
	if !containsStr(final.Delegates, "e") {
		t.Fatalf("delegation lost: %v", final.Delegates)
	}
	// No lock leaks.
	for _, u := range users {
		if n := w.cals[u].Links().Locks.Len(); n != 0 {
			t.Fatalf("%s leaked %d locks", u, n)
		}
	}

	// d drops out and is busy; its slot comes free, which is d's vote, as
	// the meeting is cancelled.
	if containsStr(final.Reserved, "d") {
		if err := w.cals["d"].DropOut(ctx, m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.cals["d"].MarkBusy(m.Slot, "errand", 0); err != nil {
		t.Fatal(err)
	}
	voteMu.Lock()
	votes = nil
	voteMu.Unlock()
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := w.cals["d"].ReleaseSlot(ctx, m.Slot); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := w.cals["a"].CancelMeeting(ctx, m.ID); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	// No vote at all when the cascade took d's link before the slot freed.
	if len(votes) > 1 || len(votes) == 1 && votes[0] != nil && !strings.Contains(votes[0].Error(), "meeting is cancelled") {
		t.Errorf("d's vote was answered %v, want it committed or declined as cancelled", votes)
	}
	for _, u := range users {
		if rec, ok := w.cals[u].Meeting(m.ID); !ok || rec.Status != calendar.StatusCancelled {
			t.Errorf("%s record = %+v, want it cancelled", u, rec)
		}
		if got := w.slotMeeting(u, m.Slot); got != "" {
			t.Errorf("%s slot = %q after the cancel", u, got)
		}
		if all := w.linkRows(u); len(all) != 0 {
			t.Errorf("%s link rows after the cancel: %+v", u, all)
		}
		if n, p := w.nodes[u].Links.Locks.Len(), w.nodes[u].Links.PendingMarks(); n != 0 || p != 0 {
			t.Errorf("%s has %d locks and %d pending marks left", u, n, p)
		}
	}
}

func allSlots(day string) []calendar.Slot {
	out := make([]calendar.Slot, 0, len(calendar.DefaultHours))
	for _, h := range calendar.DefaultHours {
		out = append(out, calendar.Slot{Day: day, Hour: h})
	}
	return out
}
