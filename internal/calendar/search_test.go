package calendar_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/calendar"
)

// oracleFree is a user's free set as FreeSlots found it before
// availability became a bitset: one probe per slot of the window.
func oracleFree(c *calendar.Calendar, fromDay, toDay string, hours []int) map[calendar.Slot]bool {
	set := map[calendar.Slot]bool{}
	for _, day := range calendar.DaysBetween(fromDay, toDay) {
		for _, h := range hours {
			if s := slot(day, h); c.Slot(s).Meeting == "" {
				set[s] = true
			}
		}
	}
	return set
}

// oracleCommonSlots is the map intersection FindCommonSlots used to do,
// read off the calendars themselves: a slot qualifies iff the initiator
// and every must and supervisor are free and every or-group has K free
// members. A user in down has no free slot.
func oracleCommonSlots(cals map[string]*calendar.Calendar, initiator string, req calendar.Request, down ...string) []calendar.Slot {
	hours := slices.Clone(req.Hours)
	if len(hours) == 0 {
		hours = slices.Clone(calendar.DefaultHours)
	}
	slices.Sort(hours)
	hours = slices.Compact(hours)
	freeOf := map[string]map[calendar.Slot]bool{}
	for u, c := range cals {
		if !slices.Contains(down, u) {
			freeOf[u] = oracleFree(c, req.FromDay, req.ToDay, hours)
		}
	}
	var out []calendar.Slot
	for _, day := range calendar.DaysBetween(req.FromDay, req.ToDay) {
		for _, h := range hours {
			s := slot(day, h)
			ok := freeOf[initiator][s]
			for _, u := range append(slices.Clone(req.Must), req.Supervisors...) {
				ok = ok && freeOf[u][s]
			}
			for _, g := range req.OrGroups {
				free := 0
				for _, u := range g.Members {
					if freeOf[u][s] {
						free++
					}
				}
				ok = ok && free >= g.K
			}
			if ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// findUsers are the population of the find property tests: the initiator
// a, two musts, a supervisor and the members of two or-groups.
var findUsers = []string{"a", "m1", "m2", "s1", "g1", "g2", "g3", "h1", "h2"}

// randomBusy marks about a third of every user's week busy.
func randomBusy(t *testing.T, rng *rand.Rand, cals map[string]*calendar.Calendar) {
	t.Helper()
	for _, u := range findUsers {
		for _, day := range calendar.DaysBetween("2003-04-21", "2003-04-25") {
			for h := 7; h <= 19; h++ {
				if rng.Intn(3) == 0 {
					if err := cals[u].MarkBusy(slot(day, h), "x", 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// randomFind draws a request over a window of one to five days inside
// that week, at an unsorted hour set with duplicates, with musts (a
// repeated one, the initiator itself), a supervisor and two or-groups,
// one of which shares a member with the musts.
func randomFind(rng *rand.Rand) calendar.Request {
	pick := func(from []string) []string {
		var out []string
		for _, u := range from {
			if rng.Intn(2) == 0 {
				out = append(out, u)
			}
		}
		return out
	}
	week, first := calendar.DaysBetween("2003-04-21", "2003-04-25"), rng.Intn(4)
	req := calendar.Request{
		FromDay:     week[first],
		ToDay:       week[first+rng.Intn(4-first+1)],
		Must:        pick([]string{"m2", "m1", "a", "m2"}),
		Supervisors: pick([]string{"s1"}),
		OrGroups: []calendar.OrGroup{
			{Name: "g", Members: []string{"g1", "g2", "g3"}, K: rng.Intn(4)},
			{Name: "h", Members: append([]string{"h1", "h2"}, pick([]string{"m1", "a"})...), K: 1 + rng.Intn(2)},
		},
	}
	if rng.Intn(5) > 0 { // else the default hours
		for n := 1 + rng.Intn(6); n > 0; n-- {
			req.Hours = append(req.Hours, 7+rng.Intn(13))
		}
	}
	return req
}

// checkFind holds a's find to the oracle, slot for slot and in order, and
// the caller's hour set to what it was.
func checkFind(t *testing.T, cals map[string]*calendar.Calendar, req calendar.Request, down ...string) {
	t.Helper()
	hours := slices.Clone(req.Hours)
	got, err := cals["a"].FindCommonSlots(ctxBg(), req)
	if err != nil {
		t.Fatalf("find %+v: %v", req, err)
	}
	if want := oracleCommonSlots(cals, "a", req, down...); !slices.Equal(got, want) {
		t.Fatalf("find %+v (down %v)\n got %v\nwant %v", req, down, got, want)
	}
	if !slices.Equal(req.Hours, hours) {
		t.Fatalf("find rearranged the caller's hours: %v, were %v", req.Hours, hours)
	}
}

// TestFindCommonSlotsProperty checks the §5 slot search against the
// per-slot oracle for random busy patterns, windows, hour sets and
// participant sets, over the v3 frames every sim delivery is. Some
// rounds take an or-group member's device down, which must only cost
// the group a member.
func TestFindCommonSlotsProperty(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for round := 0; round < 8; round++ {
			w := newWorld(t, findUsers...)
			randomBusy(t, rng, w.cals)
			var down []string
			if round%3 == 2 {
				down = []string{"g2"}
				w.net.SetDown("node-g2", true)
			}
			for n := 0; n < 5; n++ {
				checkFind(t, w.cals, randomFind(rng), down...)
			}
		}
	})
}

// TestFindCommonSlotsPropertyTCP is the same property over real sockets:
// each node on its own default transport, which sends v3 frames.
func TestFindCommonSlotsPropertyTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	cals, _ := newTCPWorld(t, nil, findUsers...)
	rng := rand.New(rand.NewSource(59))
	randomBusy(t, rng, cals)
	for n := 0; n < 12; n++ {
		checkFind(t, cals, randomFind(rng))
	}
}

// TestFindCommonSlotsUnreachableMust: a must-attendee that cannot be
// reached fails the search (rather than silently scheduling without
// them), and the error names the first one in request order; an
// unreachable or-group member merely counts as busy.
func TestFindCommonSlotsUnreachableMust(t *testing.T) {
	w := newWorld(t, "a", "b", "c", "d", "g1", "g2")
	w.net.SetDown("node-b", true)
	_, err := w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
		FromDay: day1, ToDay: day1, Must: []string{"b"},
	})
	if err == nil {
		t.Fatal("unreachable must-attendee did not fail the search")
	}
	// b and d both down: d comes first in the request.
	w.net.SetDown("node-d", true)
	_, err = w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
		FromDay: day1, ToDay: day1, Must: []string{"c", "d", "b"}, Supervisors: []string{"b"},
		OrGroups: []calendar.OrGroup{{Members: []string{"b", "g1"}, K: 1}},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "calendar: free slots of d: ") {
		t.Fatalf("musts d and b down: %v, want the error to name d", err)
	}
	w.net.SetDown("node-d", false)

	w.net.SetDown("node-b", false)
	w.net.SetDown("node-g2", true)
	got, err := w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
		FromDay: day1, ToDay: day1, Must: []string{"b"},
		OrGroups: []calendar.OrGroup{{Members: []string{"g1", "g2"}, K: 1}},
	})
	if err != nil {
		t.Fatalf("unreachable group member failed the search: %v", err)
	}
	if len(got) != len(calendar.DefaultHours) {
		t.Fatalf("slots = %d", len(got))
	}
	// But if the group needs both members, no slot qualifies.
	got, err = w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
		FromDay: day1, ToDay: day1, Must: []string{"b"},
		OrGroups: []calendar.OrGroup{{Members: []string{"g1", "g2"}, K: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("slots with unreachable quorum member = %d", len(got))
	}
}

// TestFindIsOneRoundTrip: the initiator asks its participants at once, so
// with a fixed one-way latency a find over three musts takes one round
// trip of simulated time, not three.
func TestFindIsOneRoundTrip(t *testing.T) {
	const oneWay = 20 * time.Millisecond
	w := newWorld(t)
	w.routeTTL = time.Hour
	for _, u := range []string{"a", "b", "c", "d"} {
		w.addUser(u, 0)
	}
	req := calendar.Request{FromDay: day1, ToDay: day2, Must: []string{"b", "c", "d"}}
	if _, err := w.cals["a"].FindCommonSlots(ctxBg(), req); err != nil { // fills a's route cache
		t.Fatal(err)
	}
	w.net.SetLatency(oneWay, 0)
	idle, start := w.clk.PendingWaiters(), w.clk.Now()
	done := make(chan error, 1)
	go func() {
		_, err := w.cals["a"].FindCommonSlots(ctxBg(), req)
		done <- err
	}()
	// Three requests in flight, then three replies: two one-way trips.
	w.flyLegs(idle, oneWay, 3, 3)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("find still waiting after one round trip")
	}
	if took := w.clk.Now().Sub(start); took != 2*oneWay {
		t.Fatalf("find took %s of simulated time, want one round trip (%s)", took, 2*oneWay)
	}
}

func TestSlotHelpers(t *testing.T) {
	s := calendar.Slot{Day: "2003-04-22", Hour: 14}
	if s.Entity() != "slot:2003-04-22:14" {
		t.Fatalf("entity = %q", s.Entity())
	}
	back, err := calendar.SlotFromEntity(s.Entity())
	if err != nil || back != s {
		t.Fatalf("round trip: %v %v", back, err)
	}
	if e := (calendar.Slot{Day: "d", Hour: -3}).Entity(); e != "slot:d:-3" {
		t.Fatalf("entity = %q", e)
	}
	for _, tc := range []struct {
		entity string
		want   calendar.Slot
		err    string
	}{
		{"slot:2003-04-22:9", calendar.Slot{Day: "2003-04-22", Hour: 9}, ""},
		{"slot::9", calendar.Slot{Hour: 9}, ""},
		{"slot:d:-1", calendar.Slot{Day: "d", Hour: -1}, ""},
		{"slot:d:9:1", calendar.Slot{}, `calendar: bad slot entity "slot:d:9:1"`},
		{"slot:d:x", calendar.Slot{}, `calendar: bad slot hour in "slot:d:x"`},
		{"slot:d:", calendar.Slot{}, `calendar: bad slot hour in "slot:d:"`},
		{"x:d:9", calendar.Slot{}, `calendar: bad slot entity "x:d:9"`},
		{"slot:d", calendar.Slot{}, `calendar: bad slot entity "slot:d"`},
		{"slot", calendar.Slot{}, `calendar: bad slot entity "slot"`},
		{"", calendar.Slot{}, `calendar: bad slot entity ""`},
	} {
		got, err := calendar.SlotFromEntity(tc.entity)
		if got != tc.want || tc.err == "" && err != nil || tc.err != "" && fmt.Sprint(err) != tc.err {
			t.Errorf("SlotFromEntity(%q) = %v, %v; want %v, %s", tc.entity, got, err, tc.want, tc.err)
		}
	}
	if !s.Valid() {
		t.Fatal("valid slot rejected")
	}
	for _, bad := range []calendar.Slot{
		{Day: "2003-04-22", Hour: -1},
		{Day: "2003-04-22", Hour: 24},
		{Day: "not-a-day", Hour: 9},
		{Day: "", Hour: 9},
	} {
		if bad.Valid() {
			t.Errorf("invalid slot %v accepted", bad)
		}
	}
	if s.String() != "2003-04-22 14:00" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestDaysBetween(t *testing.T) {
	got := calendar.DaysBetween("2003-04-30", "2003-05-02")
	want := []string{"2003-04-30", "2003-05-01", "2003-05-02"}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("days = %v", got)
	}
	if calendar.DaysBetween("2003-05-02", "2003-04-30") != nil {
		t.Fatal("inverted range returned days")
	}
	if calendar.DaysBetween("garbage", "2003-05-02") != nil {
		t.Fatal("garbage range returned days")
	}
	if got := calendar.DaysBetween("2003-04-22", "2003-04-22"); len(got) != 1 {
		t.Fatalf("single day = %v", got)
	}
}
