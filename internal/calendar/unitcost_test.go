package calendar_test

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/store"
)

// unitCensus counts, per device, the commit units its store logs and
// the rows in them, and keeps each unit's tables: one entry is one
// record on that device's write-ahead log, one device flush.
type unitCensus struct {
	mu    sync.Mutex
	units map[string][]string // user -> one "table+table+…" per unit, in commit order
}

type deviceLog struct {
	c    *unitCensus
	user string
}

func (deviceLog) LogDDLTable(store.Schema) store.Ack   { return nil }
func (deviceLog) LogDDLIndex(string, string) store.Ack { return nil }
func (l deviceLog) LogTx(ops []store.LoggedOp) store.Ack {
	tables := make([]string, len(ops))
	for i, op := range ops {
		tables[i] = op.Table
	}
	l.c.mu.Lock()
	l.c.units[l.user] = append(l.c.units[l.user], strings.Join(tables, "+"))
	l.c.mu.Unlock()
	return nil
}

func newUnitWorld(t *testing.T, users ...string) (*world, *unitCensus) {
	t.Helper()
	w := newWorld(t, users...)
	c := &unitCensus{units: map[string][]string{}}
	for _, u := range users {
		w.nodes[u].DB.SetLogger(deviceLog{c: c, user: u})
	}
	return w, c
}

// take checks the census since the last take — per device "units/rows"
// — and resets it.
func (c *unitCensus) take(t *testing.T, step string, want map[string]string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	got := map[string]string{}
	var detail []string
	for u, units := range c.units {
		rows := 0
		for _, tables := range units {
			rows += strings.Count(tables, "+") + 1
		}
		got[u] = fmt.Sprintf("%d/%d", len(units), rows)
		detail = append(detail, fmt.Sprintf("  %s: %s", u, strings.Join(units, " | ")))
	}
	if !maps.Equal(got, want) {
		sort.Strings(detail)
		t.Errorf("%s: commit units/rows per device = %v, want %v\n%s", step, got, want, strings.Join(detail, "\n"))
	}
	c.units = map[string][]string{}
}

// lastOf returns the tables of the last unit user has logged.
func (c *unitCensus) lastOf(user string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u := c.units[user]; len(u) > 0 {
		return u[len(u)-1]
	}
	return ""
}

// TestUnitCostSetupAndCancel: every protocol step is one commit unit.
// A conflict-free schedule is four units at the initiator (own slot |
// COMMIT decision | decision retired | forward link + record) and one at
// each participant (slot + back link + record + decided token); its
// cancel is one unit at each participant (link row + slot + record) and
// two at the initiator (link row + slot + record + the delete row owed to
// the participants | the row retired once they answered). That is the 10
// units and 24 rows per schedule + cancel of the sched_* workloads, where
// every row used to be a record of its own.
func TestUnitCostSetupAndCancel(t *testing.T) {
	w, units := newUnitWorld(t, "a", "b", "c")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	units.take(t, "setup", map[string]string{"a": "4/5", "b": "1/4", "c": "1/4"})
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	units.take(t, "cancel", map[string]string{"a": "2/5", "b": "1/3", "c": "1/3"})
}

// TestUnitCostScenarios pins the units of the other flows and holds the
// devices to the same golden row dumps as TestWireCost*: batching rows
// into units changes no row.
func TestUnitCostScenarios(t *testing.T) {
	t.Run("tentative then confirm", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b", "c")
		if err := w.cals["b"].MarkBusy(slot(day1, 10), "dentist", 0); err != nil {
			t.Fatal(err)
		}
		units.take(t, "busy", map[string]string{"b": "1/1"})
		m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		// b: the record a pushed and the tentative link b queues on it, one
		// unit (nothing link-managed blocks the slot, so no waiting row).
		units.take(t, "setup", map[string]string{"a": "4/5", "b": "1/2", "c": "1/4"})
		wantState(t, "tentative", deviceState(t, w, meetingIDs(m), "a", "b", "c"))

		if err := w.cals["b"].ReleaseSlot(ctxBg(), slot(day1, 10)); err != nil {
			t.Fatal(err)
		}
		// a: decision | retired | record. b: freed slot | the Commit (slot, link
		// promoted, record, token). c: the record pushed because its copy went stale.
		units.take(t, "confirm", map[string]string{"a": "3/3", "b": "2/5", "c": "1/1"})
		wantState(t, "confirmed", deviceState(t, w, meetingIDs(m), "a", "b", "c"))
	})

	t.Run("tentative behind a meeting, then its cancel", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b", "c", "x")
		blocker, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "offsite", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
		}); err != nil {
			t.Fatal(err)
		}
		// b: the record and the tentative link waiting on the blocker's.
		units.take(t, "setup", map[string]string{"a": "4/5", "b": "2/7", "c": "1/4", "x": "4/5"})
		if err := w.cals["x"].CancelMeeting(ctxBg(), blocker.ID); err != nil {
			t.Fatal(err)
		}
		// b: the blocker's link, slot and record go | the Commit of its vote is
		// the whole promotion: token, slot, link row permanent, waiting row
		// gone, record. a: decision | retired | record. c: the stale record.
		// x: link, slot, record and the delete row owed to b | row retired.
		if got := units.lastOf("b"); got != "SyD_NegotiationDecided+cal_slots+SyD_Link+SyD_WaitingLink+cal_meetings" {
			t.Errorf("b's promotion was logged as %q", got)
		}
		units.take(t, "cancel", map[string]string{"a": "3/3", "b": "2/8", "c": "1/1", "x": "2/5"})
	})

	t.Run("or-group", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b", "c", "d", "e")
		m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "board", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
			OrGroups: []calendar.OrGroup{{Name: "g", Members: []string{"c", "d", "e"}, K: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// a: own slot | two negotiations × (decision | retired) | link + record.
		// b: its Commit, then the final record pushed over the stale one.
		units.take(t, "setup", map[string]string{"a": "6/7", "b": "2/5", "c": "1/4", "d": "1/4", "e": "1/4"})
		wantState(t, "orgroup", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d", "e"))
	})

	t.Run("change slot", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b", "c")
		m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		units.take(t, "setup", map[string]string{"a": "4/5", "b": "1/4", "c": "1/4"})
		if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), m.ID, slot(day1, 14)); err != nil {
			t.Fatal(err)
		}
		// a: decision + own new slot (one unit, the journal row written once) |
		// retired | new link + record | old link and slot with the delete row
		// owed to b and c (the record has moved on from the old link: its
		// deletion writes no cancelled one) | that row retired.
		// b, c: the Commit on the new slot | the old link and slot.
		units.take(t, "change", map[string]string{"a": "5/9", "b": "2/6", "c": "2/6"})
		moved, _ := w.cals["a"].Meeting(m.ID)
		wantState(t, "changeslot", deviceState(t, w, meetingIDs(moved), "a", "b", "c"))
	})

	t.Run("bump", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b", "x")
		low, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		units.take(t, "low", map[string]string{"a": "4/5", "b": "1/4"})
		high, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9, AllowBump: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// b: one Commit takes the slot, swaps the bumped link for a tentative
		// one, restores the bumped record, installs the new link and record and
		// decides the token — then the bumped record as its initiator republishes it.
		units.take(t, "high", map[string]string{"a": "1/1", "b": "2/9", "x": "4/5"})
		wantState(t, "bump", deviceState(t, w, meetingIDs(low, high), "a", "b", "x"))
	})

	t.Run("expiry", func(t *testing.T) {
		w, units := newUnitWorld(t, "a", "b")
		_, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "short-lived", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
			Expires: w.clk.Now().Add(90 * time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		units.take(t, "setup", map[string]string{"a": "4/5", "b": "1/4"})
		w.clk.Advance(2 * time.Hour)
		if ids := w.nodes["b"].Links.ExpireSweep(ctxBg(), w.clk.Now()); len(ids) != 1 {
			t.Fatalf("expired %v, want the back link", ids)
		}
		// b: slot, record and link row go together with the delete row owed to
		// a | that row retired; the cascade does the same at a, owing nobody.
		units.take(t, "expire", map[string]string{"a": "1/3", "b": "2/5"})
	})
}
