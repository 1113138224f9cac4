package main

import (
	"fmt"
	"sort"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/workload"
)

// checkQuiescent runs after the drain: with every meeting cancelled the
// cluster must be back where it started. Each failed check is named.
func checkQuiescent(c *cluster, steppers []stepper) []string {
	var out []string
	fail := func(check, format string, args ...any) {
		out = append(out, check+": "+fmt.Sprintf(format, args...))
	}
	win := workload.DefaultWindow()
	for _, m := range c.members {
		// Slots held by a meeting; personal appointments of a preload stay.
		for _, s := range win.Slots() {
			if info := m.cal.Slot(s); info.Meeting != "" && !personal(info.Meeting) && !preloaded(m, info.Meeting) {
				fail("slots_free", "%s still holds %s for %s", m.user, s, info.Meeting)
			}
		}
		if n := m.node.Links.Locks.Len(); n != 0 {
			fail("locks_released", "%s has %d entity locks", m.user, n)
		}
		if n := m.node.Links.PendingMarks(); n != 0 {
			fail("locks_released", "%s has %d pending marks", m.user, n)
		}
		if t, err := m.node.DB.Table(links.WaitingLinkTable); err != nil || t.Count() != 0 {
			fail("no_waiting_links", "%s has waiting-link rows (err %v)", m.user, err)
		}
		if ids := m.node.Links.JournalPending(); len(ids) != 0 {
			fail("journal_empty", "%s has %d journal rows", m.user, len(ids))
		}
	}
	if cc, ok := steppers[0].(*contendedClient); ok {
		if a, b, clash := doubleBooked(cc.opLog()); clash {
			fail("no_double_booking", "%s held %s for %s over [%v, %v] and for %s over [%v, %v]",
				a.user, a.slot, a.meeting, a.from, a.to, b.meeting, b.from, b.to)
		}
	}
	return out
}

func personal(meeting string) bool {
	return len(meeting) >= 9 && meeting[:9] == "personal:"
}

// preloaded reports whether meeting is a live meeting the preload booked
// (find_slots keeps its 50 meetings for the whole run).
func preloaded(m *member, meeting string) bool {
	rec, ok := m.cal.Meeting(meeting)
	return ok && rec.Title == "preload" && rec.Status == calendar.StatusConfirmed
}

// doubleBooked looks for two meetings that held the same user's slot over
// overlapping intervals of the op log.
func doubleBooked(holds []hold) (a, b hold, clash bool) {
	type key struct {
		user string
		slot calendar.Slot
	}
	by := map[key][]hold{}
	for _, h := range holds {
		k := key{h.user, h.slot}
		by[k] = append(by[k], h)
	}
	for _, hs := range by {
		sort.Slice(hs, func(i, j int) bool { return hs[i].from < hs[j].from })
		for i := 1; i < len(hs); i++ {
			if hs[i].from < hs[i-1].to && hs[i].meeting != hs[i-1].meeting {
				return hs[i-1], hs[i], true
			}
		}
	}
	return hold{}, hold{}, false
}

// checkOutcomes holds each workload to what makes it that workload.
func checkOutcomes(def workloadDef, sched outcomes, res *runResult) []string {
	var out []string
	switch def.name {
	case "sched_mem", "sched_durable":
		if r := sched.successRatio(); r != 1 {
			out = append(out, fmt.Sprintf("all_confirmed: success_ratio %.4f on a conflict-free workload", r))
		}
		if res.Refused != 0 {
			out = append(out, fmt.Sprintf("all_confirmed: %d ops refused on a conflict-free workload", res.Refused))
		}
	case "contended":
		// Outside this band it is no longer a contention workload.
		if t := ratio(sched.tentative, sched.attempts); t < 0.10 || t > 0.50 {
			out = append(out, fmt.Sprintf("is_contended: tentative share %.3f outside 0.10-0.50", t))
		}
	}
	return out
}

// checkLayers holds the traced run to the isolation each workload claims.
func checkLayers(def workloadDef, lay map[string]float64) []string {
	var out []string
	zero := func(names ...string) {
		for _, n := range names {
			if lay[n] != 0 {
				out = append(out, fmt.Sprintf("layer_isolation: %s is %g on %s, must be 0", n, lay[n], def.name))
			}
		}
	}
	if !def.durable {
		zero("wal.commits_per_op", "wal.batches_per_op", "wal.flush_ms_per_op", "wal.log_bytes_per_op")
	}
	switch def.name {
	case "sched_mem", "sched_durable":
		zero("links.lock_conflicts_per_op")
	case "find_slots":
		zero("calendar.negotiations_per_op", "links.negotiate_self_ms_per_op", "links.mark_ms_per_op",
			"links.commit_ms_per_op", "links.lock_conflicts_per_op", "store.commits_per_op")
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
