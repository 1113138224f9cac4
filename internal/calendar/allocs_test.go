package calendar_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
)

// TestScheduleCancelAllocs pins what a two-attendee schedule and its
// cancel cost the process on a calendar with no notifier, every
// protocol step a round trip over the sim network, which sends a frame
// through its connection's name tables and decodes it as a socket's end
// does: no notice is built, an untraced negotiation keeps no steps, a
// commit unit allocates only the rows and keys it keeps, the Commit
// carries the record as typed arguments, which the participant reads
// without a parse, and every device stores the record as typed columns,
// which it writes and reads without a codec. It cost 234 allocations
// while notices and steps were built for nobody, 194 before units were
// recycled, 157 while the record rode as JSON text, 154 while it was
// stored as JSON text and the sim read each frame through a reader of
// its own, and 123 while every reply was JSON text (the Mark's token a
// map) and the cancel cascade built a set of the link's participants,
// 116 while a lock token was a concatenation of the prefix and a
// formatted counter, and 112 while a lock's key was its entity behind a
// prefix, every fan-out's state was new, a participant's cascade built a
// visited list it never sent, the participants of a record were listed
// in a slice of their own, and a delete's composite key was a string of
// its own. The cancel's outbox row (its record text and its row) costs
// two, less the arguments its DeleteLinks now share: 99 without it.
func TestScheduleCancelAllocs(t *testing.T) {
	ctx := context.Background()
	cals := quietCalendars(t, "a", "b")
	req := calendar.Request{Title: "sync", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}}
	op := func() {
		m, err := cals["a"].SetupMeeting(ctx, req)
		if err != nil || m.Status != calendar.StatusConfirmed {
			t.Fatalf("schedule: %+v, %v", m, err)
		}
		if err := cals["a"].CancelMeeting(ctx, m.ID); err != nil {
			t.Fatal(err)
		}
	}
	op() // the route caches
	want := 100.0
	if calendar.RaceEnabled {
		want += 30
	}
	if got := testing.AllocsPerRun(100, op); got > want {
		t.Fatalf("a schedule and its cancel: %.0f allocs, want <= %.0f", got, want)
	}
}

// quietCalendars boots a calendar with no notifier for each of users on
// one sim network, every engine with a route cache.
func quietCalendars(t *testing.T, users ...string) map[string]*calendar.Calendar {
	t.Helper()
	w := newWorld(t)
	w.routeTTL = time.Hour
	ctx := context.Background()
	cals := map[string]*calendar.Calendar{}
	for _, u := range users {
		n, err := core.Start(ctx, core.Config{User: u, Net: w.network(u), DirAddr: "dir", Clock: w.clk, RouteCacheTTL: w.routeTTL})
		if err != nil {
			t.Fatal(err)
		}
		if cals[u], err = calendar.New(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	return cals
}

// TestConflictPathAllocs pins what the §4.4 conflict path costs the
// process: x's meeting books b; a's meeting with musts b and c finds b's
// slot taken and goes tentative, b queuing a tentative back link behind
// x's; x's cancel frees b's slot and b's offer votes for a's meeting,
// which confirms; a cancels. The blocker lookup, the offer and the
// promotion read the link rows where they are stored and decode only the
// link they act on, and the Commit of the vote promotes the tentative back
// link it finds without first failing to insert a new one. It cost 399
// allocations while they copied every row on the slot or decoded every
// link there, every error's code was found through errors.As and a vote's
// reply was a map encoded as JSON, and 363 before that Commit looked
// first and before each cancel's DeleteLinks shared their arguments
// (its outbox row costs two).
func TestConflictPathAllocs(t *testing.T) {
	ctx := context.Background()
	cals := quietCalendars(t, "a", "b", "c", "x")
	blocker := calendar.Request{Title: "blocker", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}}
	req := calendar.Request{Title: "sync", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}}
	op := func() {
		x, err := cals["x"].SetupMeeting(ctx, blocker)
		if err != nil || x.Status != calendar.StatusConfirmed {
			t.Fatalf("blocker: %+v, %v", x, err)
		}
		m, err := cals["a"].SetupMeeting(ctx, req)
		if err != nil || m.Status != calendar.StatusTentative {
			t.Fatalf("schedule: %+v, %v", m, err)
		}
		if err := cals["x"].CancelMeeting(ctx, x.ID); err != nil {
			t.Fatal(err)
		}
		if got, _ := cals["a"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
			t.Fatalf("after the blocker's cancel: %+v", got)
		}
		if err := cals["a"].CancelMeeting(ctx, m.ID); err != nil {
			t.Fatal(err)
		}
	}
	op() // the route caches
	want := 354.0
	if calendar.RaceEnabled {
		want += 100
	}
	if got := testing.AllocsPerRun(50, op); got > want {
		t.Fatalf("a blocked schedule, its promotion and both cancels: %.0f allocs, want <= %.0f", got, want)
	}
}
