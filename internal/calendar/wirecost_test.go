package calendar_test

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/transport"
)

// rpcCensus counts the requests the nodes' listeners serve, as
// "links.<Method>" and "cal.<Method>" — every one of them crossed the
// sim network. Directory lookups go to the directory's own handler and
// are not counted.
type rpcCensus struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *rpcCensus) wrap(next transport.HandlerFunc) transport.HandlerFunc {
	return func(ctx context.Context, req *transport.Request) transport.Response {
		kind, _, _ := strings.Cut(req.Service, ".")
		c.mu.Lock()
		c.n[kind+"."+req.Method]++
		c.mu.Unlock()
		return next(ctx, req)
	}
}

// take checks the census since the last take and resets it.
func (c *rpcCensus) take(t *testing.T, step string, want map[string]int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !maps.Equal(c.n, want) {
		t.Errorf("%s: RPC census = %v, want %v", step, c.n, want)
	}
	c.n = map[string]int{}
}

func newCensusWorld(t *testing.T, users ...string) (*world, *rpcCensus) {
	t.Helper()
	census := &rpcCensus{n: map[string]int{}}
	w := newWorld(t)
	w.wrapNet = onRequests(census.wrap)
	for _, u := range users {
		w.addUser(u, 0)
	}
	return w, census
}

// deviceState renders what users' devices hold: every row of the slot,
// meeting, link and waiting-link tables, keys sorted, with the run's
// random meeting and link ids replaced by ids[id]. A meeting row renders
// as the row it was while the record was one JSON column: its id, and
// json.Marshal of the record read from its typed columns as doc.
func deviceState(t *testing.T, w *world, ids map[string]string, users ...string) string {
	t.Helper()
	return renderState(t, w, ids, func(r store.Row) string { return recordText(t, r) }, users...)
}

// renderState is deviceState with doc, a meeting row's record, rendered
// by record.
func renderState(t *testing.T, w *world, ids map[string]string, record func(store.Row) string, users ...string) string {
	t.Helper()
	var b strings.Builder
	for _, u := range users {
		fmt.Fprintf(&b, "== %s\n", u)
		for _, name := range []string{"cal_slots", "cal_meetings", links.LinkTable, links.WaitingLinkTable} {
			tab, err := w.nodes[u].DB.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			var rows []string
			tab.ViewAll(func(r store.Row) {
				raw, err := json.Marshal(r)
				if name == "cal_meetings" {
					raw, err = json.Marshal(map[string]string{"doc": record(r), "id": r.Str("id")})
				}
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, string(raw))
			})
			sort.Strings(rows)
			for _, r := range rows {
				fmt.Fprintf(&b, "%s %s\n", name, r)
			}
		}
	}
	out := b.String()
	for id, name := range ids {
		out = strings.ReplaceAll(out, id, name)
	}
	return out
}

// wantState holds got to testdata/<name>.golden. The golden files were
// written by this same rendering on the commit before reserved
// participants were installed by their Commit (PR 14): the devices must
// end up holding byte for byte what the message-per-step flow left, but
// for b's back link in confirmed.golden, which b's vote promoted: it is
// the back link a Commit installs, its triggers ParticipantChange's.
func wantState(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: device state differs from the golden file\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func meetingIDs(ms ...*calendar.Meeting) map[string]string {
	ids := map[string]string{}
	for i, m := range ms {
		ids[m.ID] = fmt.Sprintf("M%d", i+1)
		ids[m.LinkID] = fmt.Sprintf("L%d", i+1)
	}
	return ids
}

// TestWireCostSetupAndCancel: a conflict-free schedule costs each
// reserved participant one Commit (each must and supervisor decides
// alone, so no Mark precedes it), its cancel one DeleteLink — no link
// install, record push or promotion follows.
func TestWireCostSetupAndCancel(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b", "c", "d")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Supervisors: []string{"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	census.take(t, "setup", map[string]int{"links.Commit": 3})
	wantState(t, "setup", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d"))

	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	census.take(t, "cancel", map[string]int{"links.DeleteLink": 3})
	wantState(t, "cancel", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d"))
}

// TestWireCostFind: a find over the benchmark's 5 × 9 window asks each
// of its three participants once, at the same time, and each answers
// with one word: 3 GetFreeSlots, 6 frames, and on warm default
// transports 170 B at most (153 B measured: the requests' names are
// references into each connection's name table, each reply a 14 B frame
// whose word is a uvarint). With 4-byte length prefixes and the word as
// JSON text it was 204 B; the replies alone used to spell 1200 B of
// slots.
func TestWireCostFind(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	census := &rpcCensus{n: map[string]int{}}
	cals, stats := newTCPWorld(t, census.wrap, "a", "b", "c", "d")
	for _, u := range []string{"b", "c", "d"} {
		for _, h := range []int{9, 12, 16} {
			if err := cals[u].MarkBusy(slot("2003-04-23", h), "appt", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	find := func() {
		t.Helper()
		got, err := cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
			FromDay: "2003-04-21", ToDay: "2003-04-25", Must: []string{"b", "c", "d"},
		})
		if err != nil || len(got) != 5*9-3 {
			t.Fatalf("find: %d slots, %v", len(got), err)
		}
	}
	// One call per participant and find, over one connection to each:
	// one find puts the first exchange — the dial, the route lookup —
	// behind it.
	find()
	census.take(t, "warm-up", map[string]int{"cal.GetFreeSlots": 3})
	before := stats.Snapshot()
	find()
	after := stats.Snapshot()
	census.take(t, "find", map[string]int{"cal.GetFreeSlots": 3})
	frames, bytes := after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent
	if frames != 6 || bytes > 170 {
		t.Fatalf("find on warm default transports: %d frames, %d B; want 6 frames, <= 170 B", frames, bytes)
	}
	t.Logf("find: %d frames, %d B", frames, bytes)
}

// TestWireCostTentative: an unreserved participant refuses its Commit,
// so it is pushed the record, and that one MeetingUpdate is all it costs
// beyond the Commit: it queues its tentative link itself. The reserved
// one, whose Commit carried the record as if both accepted, is pushed
// the final record too. When its slot frees up it
// locks it and says so (SlotAvailable is its vote), the initiator goes
// straight to the Commit, which promotes that link, and only the
// participant whose record went stale is pushed one.
func TestWireCostTentative(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b", "c")
	if err := w.cals["b"].MarkBusy(slot(day1, 10), "dentist", 0); err != nil {
		t.Fatal(err)
	}
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusTentative {
		t.Fatalf("status = %s", m.Status)
	}
	census.take(t, "setup", map[string]int{"links.Commit": 2, "cal.MeetingUpdate": 2})
	wantState(t, "tentative", deviceState(t, w, meetingIDs(m), "a", "b", "c"))

	// A round of negotiations while b is still busy asks b, is refused and
	// changes nothing: nothing is stored and nobody is sent the same record.
	if got, err := w.cals["a"].TryConfirm(ctxBg(), m.ID); err != nil || got.Status != calendar.StatusTentative {
		t.Fatalf("TryConfirm with b busy: %+v, %v", got, err)
	}
	census.take(t, "try while busy", map[string]int{"links.Commit": 1})
	wantState(t, "tentative", deviceState(t, w, meetingIDs(m), "a", "b", "c"))

	if err := w.cals["b"].ReleaseSlot(ctxBg(), slot(day1, 10)); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.cals["a"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
		t.Fatalf("status after release = %s", got.Status)
	}
	census.take(t, "confirm", map[string]int{"cal.SlotAvailable": 1, "links.Commit": 1, "cal.MeetingUpdate": 1})
	wantState(t, "confirmed", deviceState(t, w, meetingIDs(m), "a", "b", "c"))
}

// TestWireCostTentativeBehindMeeting: the slot the unreserved participant
// could not give is held by another meeting's link, so the link it queues
// waits on that one, found and registered in the step the push lands in.
// Cancelling the blocker reaches it with one DeleteLink, and the meeting
// confirms as it does after a release.
func TestWireCostTentativeBehindMeeting(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b", "c", "x")
	blocker, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "offsite", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	census.take(t, "blocker", map[string]int{"links.Commit": 1})
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	census.take(t, "setup", map[string]int{"links.Commit": 2, "cal.MeetingUpdate": 2})
	l, ok := w.nodes["b"].Links.GetLink(m.LinkID)
	if !ok || l.Subtype != links.Tentative || l.WaitingOn != blocker.LinkID {
		t.Fatalf("b's link = %+v, want tentative waiting on %s", l, blocker.LinkID)
	}
	waiting, err := w.nodes["b"].DB.Table(links.WaitingLinkTable)
	if err != nil {
		t.Fatal(err)
	}
	var on string
	if !waiting.View(func(r store.Row) { on = r.Str("waiting_on") }, m.LinkID) || on != blocker.LinkID {
		t.Fatalf("b's link waits on %q, want %s", on, blocker.LinkID)
	}

	if err := w.cals["x"].CancelMeeting(ctxBg(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.cals["a"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
		t.Fatalf("status after the blocker's cancel = %s", got.Status)
	}
	census.take(t, "cancel", map[string]int{
		"links.DeleteLink": 1, "cal.SlotAvailable": 1, "links.Commit": 1, "cal.MeetingUpdate": 1,
	})
	if l, ok := w.nodes["b"].Links.GetLink(m.LinkID); !ok || l.Subtype != links.Permanent || waiting.Count() != 0 {
		t.Fatalf("b after the cancel: link %+v, %d waiting rows; want it permanent and none", l, waiting.Count())
	}
}

// TestTentativeScheduleIsThreeRoundTrips puts TestWireCostTentative's
// schedule on a clock: with a fixed one-way latency the initiator is back
// after the Commit wave and the two pushes, which go one after the other
// (b's, and c's, whose Commit carried the record as if b accepted) —
// three round trips of simulated time. Looking up the busy must's links
// and sending it one, each in turn before the push, made it five.
func TestTentativeScheduleIsThreeRoundTrips(t *testing.T) {
	const oneWay = 20 * time.Millisecond
	w := newWorld(t)
	w.routeTTL = time.Hour
	for _, u := range []string{"a", "b", "c"} {
		w.addUser(u, 0)
	}
	schedule := func(hour int) (*calendar.Meeting, error) {
		return w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "review", Day: day1, Hour: hour, PinSlot: true, Must: []string{"b", "c"},
		})
	}
	for _, hour := range []int{10, 11} {
		if err := w.cals["b"].MarkBusy(slot(day1, hour), "dentist", 0); err != nil {
			t.Fatal(err)
		}
	}
	// Fill a's route cache, which keeps a route once a call on it succeeds:
	// b's link service by a Commit b accepts, b's calendar by a record push.
	for _, hour := range []int{9, 11} {
		if _, err := schedule(hour); err != nil {
			t.Fatal(err)
		}
	}
	w.net.SetLatency(oneWay, 0)
	idle, start := w.clk.PendingWaiters(), w.clk.Now()
	type outcome struct {
		m   *calendar.Meeting
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		m, err := schedule(10)
		done <- outcome{m, err}
	}()
	// Messages in flight per one-way trip: both Commits and their replies,
	// b's record and its ack, c's record and its ack.
	w.flyLegs(idle, oneWay, 2, 2, 1, 1, 1, 1)
	select {
	case got := <-done:
		if got.err != nil || got.m.Status != calendar.StatusTentative {
			t.Fatalf("schedule: %+v, %v", got.m, got.err)
		}
		if l, ok := w.nodes["b"].Links.GetLink(got.m.LinkID); !ok || l.Subtype != links.Tentative {
			t.Fatalf("b's link = %+v, want a tentative one", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("schedule still waiting after three round trips, %d messages in flight", w.clk.PendingWaiters()-idle)
	}
	if took := w.clk.Now().Sub(start); took != 6*oneWay {
		t.Fatalf("schedule took %s of simulated time, want three round trips (%s)", took, 6*oneWay)
	}
}

// TestWireCostOrGroup: the must's one-phase Commit is decided before the
// or-group is reserved, so its record is stale and it alone gets a
// follow-up MeetingUpdate; the group (k = 2) is marked, and its Commits
// carry the final record.
func TestWireCostOrGroup(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b", "c", "d", "e")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "board", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
		OrGroups: []calendar.OrGroup{{Name: "g", Members: []string{"c", "d", "e"}, K: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	census.take(t, "setup", map[string]int{"links.Mark": 3, "links.Commit": 4, "cal.MeetingUpdate": 1})
	wantState(t, "orgroup", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d", "e"))
}

// TestWireCostChangeSlot: moving a meeting reserves the new slot with a
// Mark and a Commit per participant (all must agree, so each is marked
// first) — the Commit installs the new back link and the moved record —
// and tears the old graph down with one DeleteLink each.
func TestWireCostChangeSlot(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b", "c")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	census.take(t, "setup", map[string]int{"links.Commit": 2})
	if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), m.ID, slot(day1, 14)); err != nil {
		t.Fatal(err)
	}
	census.take(t, "change", map[string]int{"links.Mark": 2, "links.Commit": 2, "links.DeleteLink": 2})
	moved, _ := w.cals["a"].Meeting(m.ID)
	wantState(t, "changeslot", deviceState(t, w, meetingIDs(moved), "a", "b", "c"))
}

// TestBumpLeavesParentState: the bump path (Commit applies over a
// lower-priority meeting, re-queues it, tells its initiator) leaves every
// device as the message-per-step flow did.
func TestBumpLeavesParentState(t *testing.T) {
	w, _ := newCensusWorld(t, "a", "b", "x")
	low, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9, AllowBump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, "bump", deviceState(t, w, meetingIDs(low, high), "a", "b", "x"))
}

// TestReservedBackLinkCarriesExpiry: the link expiry rides the Commit
// with the record, in the v3 frame every sim delivery is, and the
// participant's back link expires with the initiator's forward link.
func TestReservedBackLinkCarriesExpiry(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		w := newWorld(t, "a", "b")
		expires := w.clk.Now().Add(90 * time.Minute)
		m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "short-lived", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Expires: expires,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, ok := w.nodes["b"].Links.GetLink(m.LinkID)
		if !ok || !l.Expires.Equal(expires) {
			t.Fatalf("b back link = %+v, want expiry %s", l, expires)
		}
		w.clk.Advance(2 * time.Hour)
		if ids := w.nodes["b"].Links.ExpireSweep(ctxBg(), w.clk.Now()); len(ids) != 1 {
			t.Fatalf("expired %v, want the back link", ids)
		}
		if got := w.slotMeeting("b", m.Slot); got != "" {
			t.Fatalf("b slot after expiry = %q", got)
		}
	})
}
