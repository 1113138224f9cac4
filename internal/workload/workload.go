// Package workload generates reproducible calendar populations and
// meeting request streams for the experiments (DESIGN.md T1/T2), the
// scale harness and sydload.
// All generators are seeded so every run of an experiment sees the
// same world.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/calendar"
)

// Users returns n synthetic user ids u00..u(n-1). Ids are zero-padded
// to the width of the largest index (minimum two digits) so that
// lexicographic order equals numeric order at any population size —
// directory listings and sorted test fixtures rely on that
// equivalence.
func Users(n int) []string {
	width := len(fmt.Sprint(n - 1))
	if width < 2 {
		width = 2
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%0*d", width, i)
	}
	return out
}

// Window is a scheduling window: consecutive days starting at Start.
type Window struct {
	Start time.Time
	Days  int
	Hours []int
}

// DefaultWindow is one working week starting 2003-04-21 (the paper's
// era) with the default business hours.
func DefaultWindow() Window {
	return Window{
		Start: time.Date(2003, 4, 21, 0, 0, 0, 0, time.UTC),
		Days:  5,
		Hours: append([]int(nil), calendar.DefaultHours...),
	}
}

// FromDay / ToDay format the window bounds.
func (w Window) FromDay() string { return w.Start.Format("2006-01-02") }

// ToDay returns the last day of the window.
func (w Window) ToDay() string {
	return w.Start.AddDate(0, 0, w.Days-1).Format("2006-01-02")
}

// Slots enumerates every slot in the window.
func (w Window) Slots() []calendar.Slot {
	var out []calendar.Slot
	for d := 0; d < w.Days; d++ {
		day := w.Start.AddDate(0, 0, d).Format("2006-01-02")
		for _, h := range w.Hours {
			out = append(out, calendar.Slot{Day: day, Hour: h})
		}
	}
	return out
}

// BusyPlan maps each user to the slots pre-occupied by personal
// appointments, drawn with the given density in [0,1).
type BusyPlan map[string][]calendar.Slot

// MakeBusyPlan draws a reproducible busy plan.
func MakeBusyPlan(users []string, w Window, density float64, seed int64) BusyPlan {
	rng := rand.New(rand.NewSource(seed))
	slots := w.Slots()
	plan := make(BusyPlan, len(users))
	for _, u := range users {
		var busy []calendar.Slot
		for _, s := range slots {
			if rng.Float64() < density {
				busy = append(busy, s)
			}
		}
		plan[u] = busy
	}
	return plan
}

// ApplyToCalendar marks the plan's slots busy on a SyD calendar.
func (p BusyPlan) ApplyToCalendar(user string, c *calendar.Calendar) error {
	for _, s := range p[user] {
		if err := c.MarkBusy(s, "appt", 0); err != nil {
			return err
		}
	}
	return nil
}

// MeetingPlan is one synthetic meeting request: an initiator and a
// participant set drawn from the population.
type MeetingPlan struct {
	Initiator    string
	Participants []string
	Priority     int
}

// MakeMeetingPlans draws count reproducible meeting requests, each
// with fanout participants distinct from the initiator.
func MakeMeetingPlans(users []string, count, fanout int, seed int64) []MeetingPlan {
	rng := rand.New(rand.NewSource(seed))
	if fanout >= len(users) {
		fanout = len(users) - 1
	}
	plans := make([]MeetingPlan, count)
	for i := range plans {
		perm := rng.Perm(len(users))
		initiator := users[perm[0]]
		parts := make([]string, 0, fanout)
		for _, idx := range perm[1 : fanout+1] {
			parts = append(parts, users[idx])
		}
		plans[i] = MeetingPlan{
			Initiator:    initiator,
			Participants: parts,
			Priority:     rng.Intn(10),
		}
	}
	return plans
}
