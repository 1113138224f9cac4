package calendar

import (
	"context"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Committee is the SyD application object of the paper's §3.2: the
// class it calls Calendars_of_committee_SyDAppC, instantiated as e.g.
// Calendars_of_phil+andy+suzy_SyDAppO. It aggregates the calendar
// device objects of a member set and offers the composite methods the
// paper names — Find_earliest_meeting_time() and
// Change_meeting_time_to_next_available() — implemented purely on top
// of the groupware (no member-local code).
//
// A Committee is bound to one local Calendar (the coordinator, whose
// engine and links are used) plus the remote members.
type Committee struct {
	cal     *Calendar
	members []string // always includes the coordinator
}

// NewCommittee builds the app object for the coordinator's calendar
// plus the other members. Member order is preserved (minus
// duplicates); the coordinator is always included.
func NewCommittee(cal *Calendar, others ...string) *Committee {
	seen := map[string]bool{cal.User(): true}
	members := []string{cal.User()}
	for _, m := range others {
		if !seen[m] {
			seen[m] = true
			members = append(members, m)
		}
	}
	return &Committee{cal: cal, members: members}
}

// Members returns the committee membership (coordinator first).
func (cc *Committee) Members() []string {
	return append([]string(nil), cc.members...)
}

// Name renders the paper's SyDAppO naming convention, e.g.
// "Calendars_of_phil+andy+suzy_SyDAppO".
func (cc *Committee) Name() string {
	joined := ""
	for i, m := range cc.members {
		if i > 0 {
			joined += "+"
		}
		joined += m
	}
	return "Calendars_of_" + joined + "_SyDAppO"
}

// others returns the non-coordinator members.
func (cc *Committee) others() []string {
	var out []string
	for _, m := range cc.members {
		if m != cc.cal.User() {
			out = append(out, m)
		}
	}
	return out
}

// FindEarliestMeetingTime is the paper's
// Find_earliest_meeting_time(): the first slot in the window at which
// every committee member is free.
func (cc *Committee) FindEarliestMeetingTime(ctx context.Context, fromDay, toDay string, hours []int) (Slot, error) {
	slots, err := cc.cal.FindCommonSlots(ctx, Request{
		FromDay: fromDay, ToDay: toDay, Hours: hours, Must: cc.others(),
	})
	if err != nil {
		return Slot{}, err
	}
	if len(slots) == 0 {
		return Slot{}, wire.Refuse(wire.ReasonNoCommonSlot, "calendar: committee has no common free slot in the window")
	}
	return slots[0], nil
}

// ScheduleEarliest sets up a committee meeting at the earliest common
// slot.
func (cc *Committee) ScheduleEarliest(ctx context.Context, title, fromDay, toDay string, priority int) (*Meeting, error) {
	return cc.cal.SetupMeeting(ctx, Request{
		Title: title, FromDay: fromDay, ToDay: toDay,
		Must: cc.others(), Priority: priority,
	})
}

// ChangeMeetingTimeToNextAvailable is the paper's
// Change_meeting_time_to_next_available(): move an existing committee
// meeting to the next slot (strictly after the current one, within
// horizonDays) at which every current participant is free. The move
// itself is the atomic negotiation of ChangeMeetingSlot — if anyone's
// status changed since the search, the change is refused (a conflict),
// the meeting stays where it was and the next slot is tried. Any other
// error ends the search and is returned as it is.
func (cc *Committee) ChangeMeetingTimeToNextAvailable(ctx context.Context, meetingID string, horizonDays int) (Slot, error) {
	m, ok := cc.cal.Meeting(meetingID)
	if !ok {
		return Slot{}, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if horizonDays <= 0 {
		horizonDays = 7
	}
	toDay := addDays(m.Slot.Day, horizonDays)
	candidates, err := cc.cal.FindCommonSlots(ctx, Request{
		FromDay: m.Slot.Day, ToDay: toDay, Must: cc.others(),
	})
	if err != nil {
		return Slot{}, err
	}
	for _, s := range candidates { // sorted by day, then hour
		if s.Day == m.Slot.Day && s.Hour <= m.Slot.Hour {
			continue // only strictly later slots
		}
		err := cc.cal.ChangeMeetingSlot(ctx, meetingID, s)
		if wire.CodeOf(err) == wire.CodeConflict {
			continue // raced with a change; try the next slot
		}
		if err != nil {
			return Slot{}, err
		}
		return s, nil
	}
	return Slot{}, wire.Refuse(wire.ReasonNoCommonSlot, "calendar: no later common slot within the horizon")
}

// FreeBusyMatrix returns, per member, the free slots in the window —
// the aggregated committee view a GUI would render (§5's "a list of
// open slots common to all the participants appears").
func (cc *Committee) FreeBusyMatrix(ctx context.Context, fromDay, toDay string, hours []int) (map[string][]Slot, error) {
	w, err := NewWindow(fromDay, toDay, hours)
	if err != nil {
		return nil, err
	}
	others := cc.others()
	avail, errs := QueryAvailability(ctx, cc.cal.eng, w, others)
	out := map[string][]Slot{cc.cal.user: cc.cal.availability(w).Slots()}
	for i, u := range others {
		if errs[i] != nil {
			return nil, fmt.Errorf("calendar: free/busy of %s: %w", u, errs[i])
		}
		out[u] = avail[i].Slots()
	}
	return out, nil
}

// addDays shifts a YYYY-MM-DD day string by n days (returns the input
// unchanged if it does not parse).
func addDays(day string, n int) string {
	t, err := time.Parse(dayLayout, day)
	if err != nil {
		return day
	}
	return t.AddDate(0, 0, n).Format(dayLayout)
}
