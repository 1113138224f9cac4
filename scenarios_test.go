package repro

import (
	"context"
	"fmt"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/sim"
)

const scenarioDay = "2003-04-21"

// scenarioWorld builds a small named-user deployment.
func scenarioWorld(users ...string) (*World, error) {
	return NewWorld(users, sim.Config{})
}

// RunE1 reproduces the §4.4 cancel-meeting scenario: cancelling a
// confirmed meeting cascades deleteLink across all participants,
// releases every slot, and automatically converts the highest-priority
// tentative meeting waiting on those slots.
func RunE1() (*Result, error) {
	res := &Result{
		ID:     "E1",
		Title:  "§4.4 cancel cascade: waiting-link promotion by priority",
		Header: []string{"event", "meeting", "status", "slot holder (b)"},
	}
	ctx := context.Background()
	w, err := scenarioWorld("a", "b", "x", "y")
	if err != nil {
		return nil, err
	}
	s := calendar.Slot{Day: scenarioDay, Hour: 10}
	// Meeting ids carry a per-process prefix: rows name meetings by title.
	titles := map[string]string{}
	report := func(event string, owner string, id string) {
		m, _ := w.Cals[owner].Meeting(id)
		res.AddRow(event, m.Title, m.Status, titles[w.Cals["b"].Slot(s).Meeting])
	}
	setup := func(owner string, req calendar.Request) (*calendar.Meeting, error) {
		m, err := w.Cals[owner].SetupMeeting(ctx, req)
		if err == nil {
			titles[m.ID] = m.Title
		}
		return m, err
	}

	m1, err := setup("a", calendar.Request{Title: "m1", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b"}})
	if err != nil {
		return nil, err
	}
	report("m1 scheduled", "a", m1.ID)
	mLow, err := setup("x", calendar.Request{Title: "low", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b"}, Priority: 1})
	if err != nil {
		return nil, err
	}
	report("low-prio waiter queued", "x", mLow.ID)
	mHigh, err := setup("y", calendar.Request{Title: "high", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b"}, Priority: 9})
	if err != nil {
		return nil, err
	}
	report("high-prio waiter queued", "y", mHigh.ID)

	if err := w.Cals["a"].CancelMeeting(ctx, m1.ID); err != nil {
		return nil, err
	}
	report("after cancel: m1", "a", m1.ID)
	report("after cancel: high", "y", mHigh.ID)
	report("after cancel: low", "x", mLow.ID)

	gotHigh, _ := w.Cals["y"].Meeting(mHigh.ID)
	gotLow, _ := w.Cals["x"].Meeting(mLow.ID)
	if gotHigh.Status != calendar.StatusConfirmed || gotLow.Status != calendar.StatusTentative {
		return res, fmt.Errorf("promotion order wrong: high=%s low=%s", gotHigh.Status, gotLow.Status)
	}
	res.AddNote("the higher-priority tentative meeting auto-confirmed; no human intervention after the cancel click")
	return res, nil
}

// RunE2 reproduces the §5 tentative-then-confirmed scenario: A,B,C,D
// meet; C is unavailable so the meeting is tentative with a tentative
// back link queued at C; when C frees the slot, the link fires and the
// meeting confirms.
func RunE2() (*Result, error) {
	res := &Result{
		ID:     "E2",
		Title:  "§5 tentative meeting auto-confirms when C frees up",
		Header: []string{"event", "status", "reserved", "missing"},
	}
	ctx := context.Background()
	w, err := scenarioWorld("a", "b", "c", "d")
	if err != nil {
		return nil, err
	}
	s := calendar.Slot{Day: scenarioDay, Hour: 14}
	if err := w.Cals["c"].MarkBusy(s, "class", 0); err != nil {
		return nil, err
	}
	m, err := w.Cals["a"].SetupMeeting(ctx, calendar.Request{
		Title: "e2", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b", "c", "d"},
	})
	if err != nil {
		return nil, err
	}
	res.AddRow("setup with C busy", m.Status, fmt.Sprintf("%v", m.Reserved), fmt.Sprintf("%v", m.Missing))
	cl, _ := w.Cals["c"].Links().GetLink(m.LinkID)
	res.AddRow("link at C", string(cl.Subtype), cl.Owner.Entity, "")

	if err := w.Cals["c"].ReleaseSlot(ctx, s); err != nil {
		return nil, err
	}
	got, _ := w.Cals["a"].Meeting(m.ID)
	res.AddRow("after C releases", got.Status, fmt.Sprintf("%v", got.Reserved), fmt.Sprintf("%v", got.Missing))
	if got.Status != calendar.StatusConfirmed {
		return res, fmt.Errorf("meeting did not auto-confirm: %s", got.Status)
	}
	res.AddNote("C's availability fired the tentative back link -> SlotAvailable at A -> renegotiation -> confirmed (§5)")
	return res, nil
}

// RunE3 reproduces the §5 reschedule/bump scenario: D cannot
// unilaterally change a confirmed meeting (back-link veto); a
// higher-priority meeting bumps the slot and the bumped meeting
// automatically reschedules when the slot frees.
func RunE3() (*Result, error) {
	res := &Result{
		ID:     "E3",
		Title:  "§5/§6 veto + priority bump + automatic rescheduling",
		Header: []string{"event", "outcome"},
	}
	ctx := context.Background()
	w, err := scenarioWorld("a", "b", "d", "x")
	if err != nil {
		return nil, err
	}
	s := calendar.Slot{Day: scenarioDay, Hour: 10}
	mLow, err := w.Cals["a"].SetupMeeting(ctx, calendar.Request{
		Title: "low", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b", "d"}, Priority: 1,
	})
	if err != nil {
		return nil, err
	}
	res.AddRow("low-prio meeting", mLow.Status)

	// D attempts a unilateral change: vetoed by the back link.
	_, verr := w.Cals["d"].Links().TriggerEntity(ctx, s.Entity(), "change", nil)
	res.AddRow("D unilateral change", fmt.Sprintf("vetoed=%v", verr != nil))
	if verr == nil {
		return res, fmt.Errorf("unilateral change not vetoed")
	}

	// x bumps with priority 9.
	mHigh, err := w.Cals["x"].SetupMeeting(ctx, calendar.Request{
		Title: "high", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b"},
		Priority: 9, AllowBump: true,
	})
	if err != nil {
		return nil, err
	}
	gotLow, _ := w.Cals["a"].Meeting(mLow.ID)
	res.AddRow("after bump", fmt.Sprintf("high=%s low=%s", mHigh.Status, gotLow.Status))
	if gotLow.Status != calendar.StatusTentative {
		return res, fmt.Errorf("bumped meeting is %s", gotLow.Status)
	}

	// Cancelling the high-priority meeting auto-reschedules the low.
	if err := w.Cals["x"].CancelMeeting(ctx, mHigh.ID); err != nil {
		return nil, err
	}
	gotLow, _ = w.Cals["a"].Meeting(mLow.ID)
	res.AddRow("after high cancel", fmt.Sprintf("low=%s", gotLow.Status))
	if gotLow.Status != calendar.StatusConfirmed {
		return res, fmt.Errorf("bumped meeting did not auto-reschedule: %s", gotLow.Status)
	}
	res.AddNote("the bumped meeting healed with zero human actions (§6's automatic rescheduling)")
	return res, nil
}

// RunE4 reproduces the §5 supervisor scenario: B's back link is
// subscription-only, so B's change is never vetoed; A renegotiates and
// the meeting recovers (or stays tentative).
func RunE4() (*Result, error) {
	res := &Result{
		ID:     "E4",
		Title:  "§5 supervisor: subscription back link, change at will",
		Header: []string{"event", "outcome"},
	}
	ctx := context.Background()
	w, err := scenarioWorld("a", "b", "c")
	if err != nil {
		return nil, err
	}
	s := calendar.Slot{Day: scenarioDay, Hour: 11}
	m, err := w.Cals["a"].SetupMeeting(ctx, calendar.Request{
		Title: "e4", Day: s.Day, Hour: s.Hour, PinSlot: true,
		Must: []string{"c"}, Supervisors: []string{"b"},
	})
	if err != nil {
		return nil, err
	}
	bl, _ := w.Cals["b"].Links().GetLink(m.LinkID)
	res.AddRow("B's back link type", string(bl.Type))
	if bl.Type != links.Subscription {
		return res, fmt.Errorf("supervisor link is %s", bl.Type)
	}
	// B changes his schedule: no veto.
	_, verr := w.Cals["b"].Links().TriggerEntity(ctx, s.Entity(), "change", nil)
	res.AddRow("B changes at will", fmt.Sprintf("vetoed=%v", verr != nil))
	if verr != nil {
		return res, fmt.Errorf("supervisor change vetoed: %v", verr)
	}
	got, _ := w.Cals["a"].Meeting(m.ID)
	res.AddRow("meeting after B's change", got.Status)
	res.AddNote("A was informed via the subscription link and renegotiated immediately (B still free -> re-confirmed)")
	return res, nil
}

// RunE6 reproduces the §3.2 design walkthrough: the SyD application
// object Calendars_of_phil+andy+suzy_SyDAppO with the two methods the
// paper names, Find_earliest_meeting_time() and
// Change_meeting_time_to_next_available().
func RunE6() (*Result, error) {
	res := &Result{
		ID:     "E6",
		Title:  "§3.2 SyDAppO: committee composite object and its named methods",
		Header: []string{"step", "result"},
	}
	ctx := context.Background()
	w, err := scenarioWorld("phil", "andy", "suzy")
	if err != nil {
		return nil, err
	}
	// Block the earliest candidate slots so the search has work to do.
	if err := w.Cals["andy"].MarkBusy(calendar.Slot{Day: scenarioDay, Hour: 9}, "x", 0); err != nil {
		return nil, err
	}
	if err := w.Cals["suzy"].MarkBusy(calendar.Slot{Day: scenarioDay, Hour: 10}, "x", 0); err != nil {
		return nil, err
	}

	cc := calendar.NewCommittee(w.Cals["phil"], "andy", "suzy")
	res.AddRow("SyDAppO name", cc.Name())

	earliest, err := cc.FindEarliestMeetingTime(ctx, scenarioDay, scenarioDay, nil)
	if err != nil {
		return nil, err
	}
	res.AddRow("Find_earliest_meeting_time()", earliest.String())
	if earliest.Hour != 11 {
		return res, fmt.Errorf("earliest = %v, want 11:00", earliest)
	}

	m, err := cc.ScheduleEarliest(ctx, "committee sync", scenarioDay, scenarioDay, 0)
	if err != nil {
		return nil, err
	}
	res.AddRow("scheduled", fmt.Sprintf("%s at %s", m.Status, m.Slot))

	// Andy gets busy at 12 — "next available" must skip to 13.
	if err := w.Cals["andy"].MarkBusy(calendar.Slot{Day: scenarioDay, Hour: 12}, "x", 0); err != nil {
		return nil, err
	}
	next, err := cc.ChangeMeetingTimeToNextAvailable(ctx, m.ID, 2)
	if err != nil {
		return nil, err
	}
	res.AddRow("Change_meeting_time_to_next_available()", next.String())
	if next.Hour != 13 {
		return res, fmt.Errorf("next = %v, want 13:00", next)
	}
	got, _ := w.Cals["phil"].Meeting(m.ID)
	res.AddRow("after move", fmt.Sprintf("%s at %s", got.Status, got.Slot))
	if got.Status != calendar.StatusConfirmed || got.Slot != next {
		return res, fmt.Errorf("meeting after move: %+v", got)
	}
	res.AddNote("the composite object runs purely on groupware calls — no member-local code, as §3.2 requires")
	return res, nil
}

// RunE5 reproduces the §5 quorum scenario: must{B,C} + 50%% of Biology
// + at least 2 of Physics via k-of-n negotiation-or links, including
// the cancellation quorum re-check.
func RunE5() (*Result, error) {
	res := &Result{
		ID:     "E5",
		Title:  "§5 quorum meeting: negotiation-or k-of-n groups",
		Header: []string{"event", "status", "reserved bio", "reserved phy"},
	}
	ctx := context.Background()
	users := []string{"a", "b", "c", "bio1", "bio2", "bio3", "bio4", "phy1", "phy2", "phy3"}
	w, err := scenarioWorld(users...)
	if err != nil {
		return nil, err
	}
	s := calendar.Slot{Day: scenarioDay, Hour: 13}
	req := calendar.Request{
		Title: "faculty", Day: s.Day, Hour: s.Hour, PinSlot: true,
		Must: []string{"b", "c"},
		OrGroups: []calendar.OrGroup{
			{Name: "biology", Members: []string{"bio1", "bio2", "bio3", "bio4"}, K: 2},
			{Name: "physics", Members: []string{"phy1", "phy2", "phy3"}, K: 2},
		},
	}
	countGroups := func(m *calendar.Meeting) (bio, phy int) {
		for _, u := range m.Reserved {
			if len(u) > 3 && u[:3] == "bio" {
				bio++
			}
			if len(u) > 3 && u[:3] == "phy" {
				phy++
			}
		}
		return
	}

	m, err := w.Cals["a"].SetupMeeting(ctx, req)
	if err != nil {
		return nil, err
	}
	bio, phy := countGroups(m)
	res.AddRow("all free", m.Status, fmt.Sprintf("%d/4 (k=2)", bio), fmt.Sprintf("%d/3 (k=2)", phy))
	if m.Status != calendar.StatusConfirmed {
		return res, fmt.Errorf("quorum setup not confirmed")
	}

	// A reserved biologist drops out; quorum still holds if >=2 remain.
	var droppedBio string
	for _, u := range m.Reserved {
		if len(u) > 3 && u[:3] == "bio" {
			droppedBio = u
			break
		}
	}
	if err := w.Cals[droppedBio].DropOut(ctx, m.ID); err != nil {
		return nil, err
	}
	got, _ := w.Cals["a"].Meeting(m.ID)
	bio, phy = countGroups(got)
	res.AddRow(droppedBio+" drops out", got.Status, fmt.Sprintf("%d/4 (k=2)", bio), fmt.Sprintf("%d/3 (k=2)", phy))

	// The §5 rule: the cancellation is granted as long as the quorum
	// holds; a fourth free biologist can backfill via TryConfirm.
	if _, err := w.Cals["a"].TryConfirm(ctx, m.ID); err != nil {
		return nil, err
	}
	got, _ = w.Cals["a"].Meeting(m.ID)
	bio, phy = countGroups(got)
	res.AddRow("after re-check", got.Status, fmt.Sprintf("%d/4 (k=2)", bio), fmt.Sprintf("%d/3 (k=2)", phy))
	if got.Status != calendar.StatusConfirmed {
		return res, fmt.Errorf("quorum did not recover: %s", got.Status)
	}
	res.AddNote("quorum failure at setup reserves nobody in the failing group (atomic k-of-n), matching §4.3")
	return res, nil
}
