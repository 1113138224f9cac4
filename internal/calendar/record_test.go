package calendar

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/jsonrec"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/wire"
)

// meetingOfShape builds a record whose optional parts shape picks: each
// list nil, empty, one user or two, or-groups absent, empty, one unnamed
// group with nil members or one named group, a link id or none.
func meetingOfShape(id, title, u1, u2, day string, hour, prio int, shape uint16) *Meeting {
	list := func(bits uint16) []string {
		switch bits & 3 {
		case 1:
			return []string{}
		case 2:
			return []string{u1}
		case 3:
			return []string{u1, u2}
		}
		return nil
	}
	m := &Meeting{ID: id, Title: title, Initiator: u1, Slot: Slot{Day: day, Hour: hour}, Status: u2, Priority: prio,
		Must: list(shape), Supervisors: list(shape >> 2), Delegates: list(shape >> 4),
		Reserved: list(shape >> 6), Missing: list(shape >> 8)}
	switch shape >> 10 & 3 {
	case 1:
		m.OrGroups = []OrGroup{}
	case 2:
		m.OrGroups = []OrGroup{{K: hour}}
	case 3:
		m.OrGroups = []OrGroup{{Name: title, Members: list(shape >> 12), K: -prio}, {Members: []string{u2}, K: 1}}
	}
	if shape&(1<<14) != 0 {
		m.LinkID = title
	}
	return m
}

// normal is m as its JSON text reads back: json.Marshal of what
// json.Unmarshal gives for json.Marshal(m). JSON carries no invalid
// UTF-8, so a string that is not valid UTF-8 comes back holding U+FFFD,
// as it does from every JSON form the record takes.
func normal(t *testing.T, m *Meeting) string {
	t.Helper()
	text, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Meeting
	if err := json.Unmarshal(text, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	return string(again)
}

// sameRecord holds got, m after a trip, to m: equal where every string
// of m is valid UTF-8 (json.Marshal wrote no U+FFFD for it), else equal
// to what m's JSON text reads back as.
func sameRecord(t *testing.T, how string, got, m *Meeting) {
	t.Helper()
	text, _ := json.Marshal(m)
	switch {
	case got.equal(m):
	case strings.Contains(string(text), `\ufffd`) && normal(t, got) == normal(t, m):
	default:
		t.Fatalf("%s: record reads back as %+v\nwant %+v", how, got, m)
	}
}

// newMeetingTable is a calendar with nothing but its meetings table.
func newMeetingTable(t *testing.T) *Calendar {
	t.Helper()
	db := store.NewDB()
	tab, err := db.CreateTable(meetingSchema)
	if err != nil {
		t.Fatal(err)
	}
	return &Calendar{db: db, meetings: tab}
}

// throughRow stores m, over stored unless that is nil, and reads it back
// twice: from the live row, and from the row's JSON form through SetJSON,
// as a WAL replay and a checkpoint restore read it, and holds the sync
// Pull's snapshot of the row to json.Marshal of the record.
func throughRow(t *testing.T, m, stored *Meeting) {
	t.Helper()
	c := newMeetingTable(t)
	for _, rec := range []*Meeting{stored, m} {
		if rec == nil {
			continue
		}
		if err := c.db.Unit(context.Background(), func(u *store.Tx) error { return c.putMeeting(u, rec) }); err != nil {
			t.Fatal(err)
		}
	}
	var row store.Row
	if !c.meetings.View(func(r store.Row) { row = r.Clone() }, m.ID) {
		t.Fatalf("no row for %q", m.ID)
	}
	live := meetingOf(row)
	sameRecord(t, "live row", &live, m)
	text, err := row.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cols map[string]json.RawMessage
	if err := json.Unmarshal(text, &cols); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	back := c.meetings.NewRow()
	for col, raw := range cols {
		if err := back.SetJSON(col, raw); err != nil {
			t.Fatalf("SetJSON(%s, %s): %v", col, raw, err)
		}
	}
	read := meetingOf(back)
	sameRecord(t, "row JSON", &read, m)
	// The snapshot is json.Marshal of the record, the text the record's
	// JSON column held; a string that is not valid UTF-8 inside the
	// or-groups, whose column is JSON text, reads back as U+FFFD.
	want, _ := json.Marshal(m)
	if strings.Contains(string(want), `\ufffd`) {
		want, _ = json.Marshal(&live)
	}
	if snap, ok := (&syncAdapter{c}).Snapshot(meetingEntity(m.ID)); !ok || string(snap) != string(want) {
		t.Fatalf("snapshot %s (%v), want %s", snap, ok, want)
	}
}

// FuzzMeetingRecord: the meeting record is stored as typed columns and
// reads back from them as it was written, from the live row and from the
// row's JSON form (a WAL record, a checkpoint), by an insert and by an
// update over another record; the sync Pull's snapshot is json.Marshal of
// the record. Any text json.Unmarshal reads as a record round trips the
// same way. The typed form a Commit and a MeetingUpdate carry reads back,
// through a v3 frame and through the JSON form a journal row and a
// QueryOutcome answer hold, as the same record (see sameThroughArgs); one
// with no id is bad arguments.
func FuzzMeetingRecord(f *testing.F) {
	f.Add("M-1", "standup", "phil", "andy", "2003-04-22", 9, 0, uint16(0x40c3), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":0,"must":[]}`)
	f.Add("M-<2>", "q&a \"x\" \\ \n\t\xe2\x80\xa8", "\xff", "\x00\x1f\x7f", "", -3, -1<<40, uint16(0xffff), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":01},"status":"s","priority":0}`)
	f.Add("", "", "", "", "", 0, 0, uint16(0x0a55), `{"id":"M", "title":"t"}`)
	f.Add("M-3", "héllo ✓", "a", "b", "d", 23, 7, uint16(0x3aaa), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":-0,"orGroups":[{"members":null,"k":2}],"linkID":"L"}`)
	f.Add("M-4", "t", "a", "b", "d", 1, 1, uint16(0x0800), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":99999999999999999999}`)
	f.Add("M-5", "t", "a", "b", "d", 1, 1, uint16(0x1c00), `{"ID":"M","title":"tA","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":0} `)
	f.Fuzz(func(t *testing.T, id, title, u1, u2, day string, hour, prio int, shape uint16, text string) {
		m := meetingOfShape(id, title, u1, u2, day, hour, prio, shape)
		throughRow(t, m, nil)
		throughRow(t, m, meetingOfShape(id, u2, u2, u1, day+"x", hour+1, prio-1, shape^0x7fff))
		var parsed Meeting
		if json.Unmarshal([]byte(text), &parsed) == nil {
			throughRow(t, &parsed, nil)
		}
		sameThroughArgs(t, m)
	})
}

// sameThroughArgs reads m back from recordArgs after each trip it takes:
// a v3 frame, and the JSON form read by UnmarshalJSON and, where the text
// is in its subset, by ReadArgs.
func sameThroughArgs(t *testing.T, m *Meeting) {
	t.Helper()
	rec := wire.Args{wire.Sub("rec", recordArgs(m))}
	f, err := new(wire.NameTable).EncodeFrame(&wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
		Service: "cal.andy", Method: "MeetingUpdate", Args: rec}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := new(wire.Decoder).Decode(f.Bytes())
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	text, err := rec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON wire.Args
	if err := viaJSON.UnmarshalJSON(text); err != nil {
		t.Fatal(err)
	}
	trips := map[string]wire.Args{"v3 frame": env.Request.Args, "UnmarshalJSON": viaJSON}
	r := jsonrec.NewReader(string(text))
	if a := wire.ReadArgs(&r); r.Done() {
		trips["ReadArgs"] = a
	}
	for how, a := range trips {
		got, err := meetingFromArgs(a.Sub("rec"))
		switch {
		case m.ID == "":
			if wire.CodeOf(err) != wire.CodeBadArgs {
				t.Fatalf("%s: a record with no id reads as %+v, %v; want bad-args", how, got, err)
			}
		case err != nil:
			t.Fatalf("%s: %v", how, err)
		default:
			sameRecord(t, how, &got, m)
		}
	}
}

var (
	rowSink     store.Row
	meetingSink Meeting
)

// TestMeetingRecordAllocs pins what storing and reading a
// three-participant record costs: the row, whose lists are the record's
// own, and nothing at all to read one back or to compare two. Its JSON
// text cost 1 to encode and 2 to decode (encoding/json: 2 and 24).
func TestMeetingRecordAllocs(t *testing.T) {
	m := &Meeting{ID: "M-0001f00dcafe0001", Title: "design review", Initiator: "phil",
		Slot: Slot{Day: "2026-08-07", Hour: 14}, Status: StatusConfirmed, Priority: 2,
		Must: []string{"andy", "beth"}, Reserved: []string{"phil", "andy", "beth"}, LinkID: "L-0001f00dcafe0002"}
	c := newMeetingTable(t)
	row := c.meetingRow(m, nil)
	stored := meetingOf(row)
	for _, tc := range []struct {
		name string
		most float64
		run  func()
	}{
		{"write", 1, func() { rowSink = c.meetingRow(m, nil) }},
		{"read", 0, func() { meetingSink = meetingOf(row) }},
		{"compare", 0, func() { _ = m.equal(&stored) }},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.most {
			t.Errorf("%s of a meeting record costs %.0f allocs, want at most %.0f", tc.name, got, tc.most)
		}
	}
}

// TestMeetingListsDoNotAliasTheRow: the lists of a record read from its
// row may be appended to and overwritten, while other readers read the
// row, and the stored record stays as it was written.
func TestMeetingListsDoNotAliasTheRow(t *testing.T) {
	c := newMeetingTable(t)
	want := &Meeting{ID: "M-1", Initiator: "a", Status: StatusConfirmed, Must: []string{"b", "c"},
		Supervisors: []string{"d"}, Delegates: []string{"e"}, Reserved: []string{"a", "b"}, Missing: []string{"c"}}
	if err := c.db.Unit(context.Background(), func(u *store.Tx) error { return c.putMeeting(u, want) }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				m, ok := c.Meeting("M-1")
				if !ok {
					t.Error("the record is gone")
					return
				}
				for _, l := range m.userLists() {
					grown := append(*l, "x")
					grown[0] = "y"
					*l = grown
				}
				m.Reserved = removeString(m.Reserved, "y")
				m.Missing = nil
			}
		}()
	}
	wg.Wait()
	if got, _ := c.Meeting("M-1"); !got.equal(want) {
		t.Fatalf("the stored record reads %+v, want %+v", got, want)
	}
}

// TestParticipantsOrder: the initiator, the musts, the supervisors and the
// or-groups' members, each user once where first seen, none empty, in one
// allocation, or none appended to a buffer with room after what it holds;
// involves is membership of that list, with no allocation.
func TestParticipantsOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Meeting
		want []string
	}{
		{"initiator alone", Meeting{Initiator: "a"}, []string{"a"}},
		{"first-seen order", Meeting{Initiator: "a", Must: []string{"c", "b"}, Supervisors: []string{"d"},
			OrGroups: []OrGroup{{Members: []string{"f", "e"}}, {Members: []string{"g"}}}},
			[]string{"a", "c", "b", "d", "f", "e", "g"}},
		{"duplicates across lists", Meeting{Initiator: "a", Must: []string{"b", "a", "b"}, Supervisors: []string{"b", "c"},
			OrGroups: []OrGroup{{Members: []string{"c", "a", "d"}}, {Members: []string{"d", "e"}}}},
			[]string{"a", "b", "c", "d", "e"}},
		{"empty initiator", Meeting{Must: []string{"b", ""}, OrGroups: []OrGroup{{Members: []string{"", "c"}}}},
			[]string{"b", "c"}},
		{"nobody", Meeting{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Participants(); !reflect.DeepEqual(append([]string(nil), got...), tc.want) {
				t.Fatalf("Participants() = %q, want %q", got, tc.want)
			}
			if got := testing.AllocsPerRun(10, func() { tc.m.Participants() }); got > 1 {
				t.Fatalf("Participants() costs %.0f allocs, want <= 1", got)
			}
			var buf [8]string
			buf[0] = "a" // held already: appended again if a participant
			if got := tc.m.appendParticipants(buf[:1]); !slices.Equal(got[1:], tc.want) || &got[0] != &buf[0] {
				t.Fatalf("appendParticipants after %q = %q, want %q in the buffer", buf[0], got[1:], tc.want)
			}
			if got := testing.AllocsPerRun(10, func() { tc.m.appendParticipants(buf[:0]) }); got != 0 {
				t.Fatalf("appendParticipants into a buffer with room costs %.0f allocs", got)
			}
			for _, u := range []string{"", "a", "b", "c", "d", "e", "f", "g", "z"} {
				if got, want := tc.m.involves(u), slices.Contains(tc.want, u); got != want {
					t.Fatalf("involves(%q) = %v, want %v", u, got, want)
				}
			}
			if got := testing.AllocsPerRun(10, func() { tc.m.involves("g") }); got != 0 {
				t.Fatalf("involves costs %.0f allocs", got)
			}
		})
	}
}

// TestOldMeetingSchemaRefused: a database whose meetings table holds the
// record as one JSON text column is refused, not read.
func TestOldMeetingSchemaRefused(t *testing.T) {
	db := store.NewDB()
	if _, err := db.CreateTable(store.Schema{Name: meetingTable, Key: []string{"id"},
		Columns: []store.Column{{Name: "id", Type: store.String}, {Name: "doc", Type: store.String}}}); err != nil {
		t.Fatal(err)
	}
	lm, err := links.NewManager("andy", db, nil, clock.NewFake(time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetached("andy", db, lm, nil); !errors.Is(err, ErrMeetingSchema) {
		t.Fatalf("a calendar over the doc schema: %v, want ErrMeetingSchema", err)
	}
}
