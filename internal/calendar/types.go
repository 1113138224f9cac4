// Package calendar implements the SyD calendar-of-meetings application
// (paper §3.2, §4.4, §5): independent per-device calendars coordinated
// purely through SyD links — meeting setup over common free slots,
// tentative meetings with automatic confirmation on cancellations,
// priority bumping, supervisor (subscription-only) participants,
// multiple OR-groups with quorums, dropouts, and cancellation cascades.
package calendar

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/links"
)

// Meeting status values.
const (
	StatusConfirmed = "confirmed"
	StatusTentative = "tentative"
	StatusCancelled = "cancelled"
)

// Slot identifies one calendar slot: a day (YYYY-MM-DD) and an hour.
type Slot struct {
	Day  string `json:"day"`
	Hour int    `json:"hour"`
}

// String implements fmt.Stringer: the day, then the hour as "%02d:00".
func (s Slot) String() string {
	var buf [24]byte
	b := append(buf[:0], s.Day...)
	b = append(b, ' ')
	if 0 <= s.Hour && s.Hour < 10 {
		b = append(b, '0')
	}
	return string(append(strconv.AppendInt(b, int64(s.Hour), 10), ":00"...))
}

// Entity returns the SyD entity id for the slot (the unit the
// coordination links attach to).
func (s Slot) Entity() string { return "slot:" + s.Day + ":" + strconv.Itoa(s.Hour) }

// SlotFromEntity parses a slot entity id.
func SlotFromEntity(entity string) (Slot, error) {
	rest, ok := strings.CutPrefix(entity, "slot:")
	day, hour, cut := strings.Cut(rest, ":")
	if !ok || !cut || strings.Contains(hour, ":") {
		return Slot{}, fmt.Errorf("calendar: bad slot entity %q", entity)
	}
	h, err := strconv.Atoi(hour)
	if err != nil {
		return Slot{}, fmt.Errorf("calendar: bad slot hour in %q", entity)
	}
	return Slot{Day: day, Hour: h}, nil
}

// Valid reports whether the slot has a parseable day and a sane hour.
func (s Slot) Valid() bool {
	if s.Hour < 0 || s.Hour > 23 {
		return false
	}
	_, err := time.Parse(dayLayout, s.Day)
	return err == nil
}

// OrGroup is a quorum group: at least K of Members must attend (§5's
// "a quorum of 50% among the faculty of Biology and at least two
// faculties from Physics").
type OrGroup struct {
	Name    string   `json:"name,omitempty"`
	Members []string `json:"members"`
	K       int      `json:"k"`
}

// Request describes a meeting to set up (§5's GUI form: dates, people,
// and design criteria such as "A and B are must-attendees, but one of
// C, D, E would suffice").
type Request struct {
	// ID optionally pins the meeting id. Offline replay pre-mints it
	// when the op is queued, so a drain interrupted mid-push can retry
	// without creating a second meeting.
	ID string `json:"id,omitempty"`

	Title string `json:"title"`

	// Search window used when Day/Hour are not pinned.
	FromDay string `json:"fromDay"`
	ToDay   string `json:"toDay"`
	// Hours restricts candidate hours (nil = 9..17).
	Hours []int `json:"hours,omitempty"`

	// Day/Hour pin an explicit slot, skipping the search.
	Day  string `json:"day,omitempty"`
	Hour int    `json:"hour,omitempty"`
	// PinSlot distinguishes an explicit Hour 0 from "not set".
	PinSlot bool `json:"pinSlot,omitempty"`

	// Must lists required attendees besides the initiator.
	Must []string `json:"must,omitempty"`
	// Supervisors attend but retain the right to change their
	// schedule at will (subscription back links only, §5).
	Supervisors []string `json:"supervisors,omitempty"`
	// OrGroups are quorum groups.
	OrGroups []OrGroup `json:"orGroups,omitempty"`

	// Priority orders meetings; a higher-priority meeting may bump a
	// lower-priority one when AllowBump is set (§6).
	Priority  int  `json:"priority"`
	AllowBump bool `json:"allowBump,omitempty"`

	// Expires optionally bounds the meeting's links (§4.2 op 6).
	Expires time.Time `json:"expires,omitempty"`
}

// Meeting is the meeting record (stored at the initiator; pushed to
// participants for visibility).
type Meeting struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Initiator string `json:"initiator"`
	Slot      Slot   `json:"slot"`
	Status    string `json:"status"`
	Priority  int    `json:"priority"`

	Must        []string  `json:"must,omitempty"`
	Supervisors []string  `json:"supervisors,omitempty"`
	OrGroups    []OrGroup `json:"orGroups,omitempty"`
	// Delegates may cancel/change on the initiator's behalf (§5's
	// "an executive may want to delegate the task of scheduling").
	Delegates []string `json:"delegates,omitempty"`

	// Reserved lists participants currently holding the slot;
	// Missing lists must-attendees not yet reserved.
	Reserved []string `json:"reserved,omitempty"`
	Missing  []string `json:"missing,omitempty"`

	// LinkID is the shared coordination-link id across participants.
	LinkID string `json:"linkID,omitempty"`
}

// Participants returns every user involved (initiator, musts,
// supervisors, or-group members), deduplicated, in first-seen order.
func (m *Meeting) Participants() []string {
	n := 1 + len(m.Must) + len(m.Supervisors)
	for _, g := range m.OrGroups {
		n += len(g.Members)
	}
	return m.appendParticipants(make([]string, 0, n))
}

// appendParticipants appends Participants to buf: a caller's stack
// buffer holds a meeting's. The lists are a handful of names, so they
// are deduplicated by a linear scan.
func (m *Meeting) appendParticipants(buf []string) []string {
	from := len(buf)
	add := func(users ...string) {
		for _, u := range users {
			if u != "" && !containsString(buf[from:], u) {
				buf = append(buf, u)
			}
		}
	}
	add(m.Initiator)
	add(m.Must...)
	add(m.Supervisors...)
	for _, g := range m.OrGroups {
		add(g.Members...)
	}
	return buf
}

// involves reports whether user is one of m's Participants.
func (m *Meeting) involves(user string) bool {
	if user == "" {
		return false
	}
	if user == m.Initiator || containsString(m.Must, user) || containsString(m.Supervisors, user) {
		return true
	}
	for _, g := range m.OrGroups {
		if containsString(g.Members, user) {
			return true
		}
	}
	return false
}

// isReserved reports whether user currently holds the meeting slot.
func (m *Meeting) isReserved(user string) bool {
	for _, u := range m.Reserved {
		if u == user {
			return true
		}
	}
	return false
}

// quorumShortfall returns, per or-group, how many more members need to
// be reserved to meet K (0 when satisfied).
func (m *Meeting) quorumShortfall() []int {
	out := make([]int, len(m.OrGroups))
	for i, g := range m.OrGroups {
		have := 0
		for _, u := range g.Members {
			if m.isReserved(u) {
				have++
			}
		}
		if g.K > have {
			out[i] = g.K - have
		}
	}
	return out
}

// satisfied reports whether all musts are reserved and every or-group
// meets its quorum.
func (m *Meeting) satisfied() bool {
	if len(m.Missing) > 0 {
		return false
	}
	for _, short := range m.quorumShortfall() {
		if short > 0 {
			return false
		}
	}
	return true
}

// standing is the status the meeting's constraints give it.
func (m *Meeting) standing() string {
	if m.satisfied() {
		return StatusConfirmed
	}
	return StatusTentative
}

// holding returns the record as it stands once refs' users hold the slot
// as well: they join Reserved, leave Missing, and the status follows.
func (m *Meeting) holding(refs []links.EntityRef) *Meeting {
	d := *m
	d.Reserved = append(slices.Grow([]string(nil), len(m.Reserved)+len(refs)), m.Reserved...)
	for _, r := range refs {
		d.Reserved = append(d.Reserved, r.User)
	}
	d.Missing = nil
	for _, u := range m.Missing {
		if !slices.ContainsFunc(refs, func(r links.EntityRef) bool { return r.User == u }) {
			d.Missing = append(d.Missing, u)
		}
	}
	d.Status = d.standing()
	return &d
}

// canAdminister reports whether user may cancel/change the meeting:
// the initiator or a delegate (§6: "only the initiator of a meeting
// can cancel that meeting", extended by §5's delegation).
func (m *Meeting) canAdminister(user string) bool {
	if user == m.Initiator {
		return true
	}
	for _, d := range m.Delegates {
		if d == user {
			return true
		}
	}
	return false
}

// removeString removes the first occurrence of v from list.
func removeString(list []string, v string) []string {
	for i, s := range list {
		if s == v {
			return append(append([]string(nil), list[:i]...), list[i+1:]...)
		}
	}
	return list
}

// containsString reports membership.
func containsString(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}
