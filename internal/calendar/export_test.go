package calendar

import (
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// RecordArgs is the record m as a Commit and a MeetingUpdate carry it.
func RecordArgs(m *Meeting) wire.Args { return recordArgs(m) }

// MeetingOfRow is the record a row of the meetings table holds.
func MeetingOfRow(r store.Row) Meeting { return meetingOf(r) }

// DaysBetween enumerates the days from fromDay to toDay inclusive
// (both YYYY-MM-DD). Returns nil if the range is malformed or inverted.
// It is how the slot search walked a window before availability became a
// bitset; the per-slot oracle of search_test.go still walks it this way.
func DaysBetween(fromDay, toDay string) []string {
	from, err1 := time.Parse(dayLayout, fromDay)
	to, err2 := time.Parse(dayLayout, toDay)
	if err1 != nil || err2 != nil || to.Before(from) {
		return nil
	}
	var out []string
	for d := from; !d.After(to); d = d.AddDate(0, 0, 1) {
		out = append(out, d.Format(dayLayout))
	}
	return out
}

// Satisfied reports whether the meeting's constraints are all met —
// every must-attendee reserved and every or-group at quorum.
func (m *Meeting) Satisfied() bool { return m.satisfied() }
