package links

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/jsonrec"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestEntityRefStringAndLess(t *testing.T) {
	a := EntityRef{User: "a", Entity: "slot:1"}
	b := EntityRef{User: "b", Entity: "slot:1"}
	a2 := EntityRef{User: "a", Entity: "slot:2"}
	if a.String() != "a/slot:1" {
		t.Fatalf("String = %q", a.String())
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("user ordering wrong")
	}
	if !a.Less(a2) || a2.Less(a) {
		t.Fatal("entity ordering wrong")
	}
	if a.Less(a) {
		t.Fatal("irreflexive violated")
	}
}

// TestEntityRefLessIsStrictWeakOrder: sorting with Less always yields
// the same order regardless of input permutation.
func TestEntityRefLessIsStrictWeakOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := []EntityRef{
			{User: "a", Entity: "1"}, {User: "a", Entity: "2"},
			{User: "b", Entity: "1"}, {User: "c", Entity: "0"},
		}
		shuffled := append([]EntityRef(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Less(shuffled[j]) })
		return reflect.DeepEqual(shuffled, base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkValidateTable(t *testing.T) {
	owner := EntityRef{User: "a", Entity: "e"}
	valid := Link{
		ID: "L1", Type: Negotiation, Subtype: Permanent,
		Owner: owner, Constraint: And,
	}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tentative := valid
	tentative.Subtype = Tentative
	tentative.WaitingOn = "" // tentative without blocker is legal (§5 queue-at-slot)
	if err := tentative.Validate(); err != nil {
		t.Fatal(err)
	}
	sub := Link{ID: "L2", Type: Subscription, Subtype: Permanent, Owner: owner}
	if err := sub.Validate(); err != nil {
		t.Fatalf("subscription needs no constraint: %v", err)
	}
}

func TestEffectiveK(t *testing.T) {
	l := Link{}
	if l.EffectiveK() != 1 {
		t.Fatalf("default k = %d", l.EffectiveK())
	}
	l.K = 3
	if l.EffectiveK() != 3 {
		t.Fatalf("k = %d", l.EffectiveK())
	}
}

func TestTriggersFor(t *testing.T) {
	l := Link{Triggers: []Trigger{
		{Event: "change", Action: "a1"},
		{Event: "delete", Action: "a2"},
		{Event: "change", Method: "M", Service: "s.%s"},
	}}
	got := l.TriggersFor("change")
	if len(got) != 2 {
		t.Fatalf("change triggers = %d", len(got))
	}
	if len(l.TriggersFor("promote")) != 0 {
		t.Fatal("phantom triggers")
	}
}

func TestMergedArgsRuntimeWins(t *testing.T) {
	tr := Trigger{Args: wire.Args{wire.Int("a", 1), wire.Str("b", "static")}}
	got := tr.Args.With(wire.Str("b", "runtime"), wire.Bool("c", true))
	if got.Int("a") != 1 || got.String("b") != "runtime" || !got.Bool("c") {
		t.Fatalf("merged = %v", got)
	}
	// Nil runtime keeps statics.
	got = tr.Args.With()
	if got.String("b") != "static" {
		t.Fatalf("merged = %v", got)
	}
}

// codecLinks and codecJournal are tables of a link database no manager
// uses: the row codecs' tests build their rows for them.
var codecLinks, _, codecJournal, _, _ = createLinkDB(store.NewDB())

// TestLinkDatabaseTables: a device boots with the four link tables the
// manager reads and writes. SyD_LinkMethod, which no operation wrote, is
// not among them; an old data directory that still holds it, or the
// cascade tombstones' table the outbox replaced, recovers with it unused.
func TestLinkDatabaseTables(t *testing.T) {
	db := store.NewDB()
	if _, _, _, _, err := createLinkDB(db); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{LinkTable, WaitingLinkTable, NegotiationJournal, NegotiationDecided} {
		if _, err := db.Table(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := db.Table("SyD_LinkMethod"); err == nil {
		t.Error("a fresh link database has SyD_LinkMethod")
	}
}

func TestLinkRowCodecRoundTrip(t *testing.T) {
	created := time.Date(2003, 4, 22, 10, 0, 0, 0, time.UTC)
	l := &Link{
		ID: "L-codec", Type: Negotiation, Subtype: Tentative,
		Owner:      EntityRef{User: "a", Entity: "slot:1"},
		Targets:    []EntityRef{{User: "b", Entity: "slot:1"}, {User: "c", Entity: "slot:2"}},
		Constraint: Or, K: 2, Priority: 7,
		Triggers: []Trigger{
			{Event: "promote", Service: "cal.%s", Method: "SlotAvailable", Args: wire.Args{wire.Str("meeting", "M1")}},
		},
		WaitingOn: "L-block", Group: "M1",
		Created: created, Expires: created.Add(24 * time.Hour),
	}
	row, err := linkToRow(codecLinks, l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rowToLink(row)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != l.ID || back.Type != l.Type || back.Subtype != l.Subtype ||
		back.Constraint != l.Constraint || back.K != l.K || back.Priority != l.Priority ||
		back.WaitingOn != l.WaitingOn || back.Group != l.Group {
		t.Fatalf("scalar fields: %+v", back)
	}
	if !reflect.DeepEqual(back.Targets, l.Targets) {
		t.Fatalf("targets: %v", back.Targets)
	}
	if len(back.Triggers) != 1 || back.Triggers[0].Method != "SlotAvailable" ||
		back.Triggers[0].Args.String("meeting") != "M1" {
		t.Fatalf("triggers: %+v", back.Triggers)
	}
	if !back.Created.Equal(l.Created) || !back.Expires.Equal(l.Expires) {
		t.Fatalf("times: %v %v", back.Created, back.Expires)
	}
}

// linkOfShape builds a link whose targets and triggers shape picks: each
// nil, empty, one or two; the second trigger's args hold every kind of
// value, a nested one included.
func linkOfShape(user, entity, event, key, s string, b bool, n int, fl float64, shape uint8) *Link {
	l := &Link{ID: "L-" + s, Type: Negotiation, Subtype: Permanent, Owner: EntityRef{User: user, Entity: entity}}
	refs := []EntityRef{{User: user, Entity: entity}, {User: s, Entity: key}}
	trigs := []Trigger{
		{Event: event, Action: s, Service: key, Method: entity},
		{Event: event, Method: s, Args: wire.Args(nil).With(wire.Str(key, s), wire.Bool("b", b), wire.Int("n", n), wire.Int64("i", int64(-n)), wire.Arg{Key: "nil"})},
	}
	switch shape & 7 {
	case 1:
		trigs[1].Args = trigs[1].Args.With(wire.Float("f", fl))
	case 2:
		trigs[1].Args = trigs[1].Args.With(wire.Strs("list", []string{s}), wire.Sub("nested", wire.Args{wire.Float(key, fl)}))
	case 3:
		trigs[1].Args = wire.Args{}
	}
	cut := func(bits uint8) int { return int(bits&3) - 1 }
	if k := cut(shape >> 3); k >= 0 {
		l.Targets = refs[:k]
	}
	if k := cut(shape >> 5); k >= 0 {
		l.Triggers = trigs[:k]
	}
	return l
}

// FuzzLinkRecord: a link row's targets and triggers columns are
// encoding/json's text. The writer appends what json.Marshal writes for
// the slices and fails where it fails, and a column decodes to what
// json.Unmarshal gives, for the writer's output and for any other text.
func FuzzLinkRecord(f *testing.F) {
	f.Add("phil", "slot:2026-08-07:14", "change", "meeting", "M-1", true, 9, 1.5, uint8(0xff), `[{"user":"a","entity":"e"}]`)
	f.Add("<a&b>", "\xff\x00\x1f\x7f", "", "\xe2\x80\xa8", "q \"x\" \\ \n\t", false, -1<<40, math.NaN(), uint8(0x79), `[{"event":"e","args":{"n":-0,"s":"x","t":true,"z":null}}]`)
	f.Add("", "", "", "", "", false, 0, math.Inf(1), uint8(0x6a), `[{"event":"e","args":{"n":1e3}}]`)
	f.Add("u", "e", "avail", "k", "héllo ✓", true, 1<<62, -0.0, uint8(0x52), `[{"user":"a","entity":"e"} ]`)
	f.Add("u", "e", "avail", "k", "v", true, 3, 2.0, uint8(0x7b), `[{"event":"e","args":{"n":99999999999999999999999999999999999999,"n":2}},{"event":"f","args":null}]`)
	f.Fuzz(func(t *testing.T, user, entity, event, key, s string, b bool, n int, fl float64, shape uint8, text string) {
		l := linkOfShape(user, entity, event, key, s, b, n, fl, shape)
		wantTargets, _ := json.Marshal(l.Targets)
		wantTriggers, wantErr := json.Marshal(l.Triggers)
		row, err := linkToRow(codecLinks, l)
		if wantErr != nil {
			if want := "links: encode triggers: " + wantErr.Error(); fmt.Sprint(err) != want {
				t.Fatalf("linkToRow error = %v, json.Marshal says %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("linkToRow: %v; json.Marshal succeeds", err)
		}
		if row.Str("targets") != string(wantTargets) || row.Str("triggers") != string(wantTriggers) {
			t.Fatalf("linkToRow writes targets %s, triggers %s\njson.Marshal writes %s, %s",
				row.Str("targets"), row.Str("triggers"), wantTargets, wantTriggers)
		}
		for _, col := range []string{"targets", "triggers"} {
			for _, doc := range []string{row.Str(col), text} {
				if doc == "" {
					continue // an empty column is no list, not a decode
				}
				r := row.Clone()
				r.SetStr(col, doc)
				got, err := rowToLink(r)
				var want Link
				var gotVal, wantVal any
				var wantErr error
				if col == "targets" {
					wantErr = json.Unmarshal([]byte(doc), &want.Targets)
					wantVal = want.Targets
					if err == nil {
						gotVal = got.Targets
					}
				} else {
					wantErr = json.Unmarshal([]byte(doc), &want.Triggers)
					wantVal = want.Triggers
					if err == nil {
						gotVal = got.Triggers
					}
				}
				if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(gotVal, wantVal) {
					t.Fatalf("%s column %q decodes to %#v (%v), json.Unmarshal to %#v (%v)", col, doc, gotVal, err, wantVal, wantErr)
				}
			}
		}
	})
}

var (
	rowSink  store.Row
	linkSink *Link
)

// TestLinkRowAllocs pins what a participant's back link costs to write
// as a row and to read back.
func TestLinkRowAllocs(t *testing.T) {
	slot := "slot:2026-08-07:14"
	l := &Link{
		ID: "L-0001f00dcafe0002", Type: Negotiation, Subtype: Permanent, Constraint: And, Priority: 2, Group: "M-0001f00dcafe0001",
		Owner:   EntityRef{User: "andy", Entity: slot},
		Targets: []EntityRef{{User: "phil", Entity: slot}},
		Triggers: []Trigger{{Event: "change", Service: "cal.%s", Method: "ParticipantChange",
			Args: wire.Args{wire.Str("meeting", "M-0001f00dcafe0001"), wire.Str("user", "andy")}}},
		Created: time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC),
	}
	row, err := linkToRow(codecLinks, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		most float64
		run  func()
	}{
		{"linkToRow", 2, func() { rowSink, _ = linkToRow(codecLinks, l) }}, // encoding/json: 26, a map row: 17
		{"rowToLink", 7, func() { linkSink, _ = rowToLink(row) }},          // encoding/json: 32
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.most {
			t.Errorf("%s of a back link costs %.0f allocs, want at most %.0f", tc.name, got, tc.most)
		}
	}
}

func TestParticipantsDeduplicated(t *testing.T) {
	l := &Link{
		Owner: EntityRef{User: "a", Entity: "e1"},
		Targets: []EntityRef{
			{User: "b", Entity: "e1"},
			{User: "a", Entity: "e2"}, // owner again, other entity
			{User: "c", Entity: "e1"},
			{User: "b", Entity: "e3"},
		},
	}
	users := func(ts []journalTarget) (out []string) {
		for _, t := range ts {
			out = append(out, t.Ref.User)
		}
		return out
	}
	if got, want := users(owedPeers(l, "", nil, nil)), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("participants = %v, want %v", got, want)
	}
	// The peers a deletion owes leave out this device and the visited, and
	// into a caller's buffer with room they cost nothing.
	var buf [8]journalTarget
	var got []journalTarget
	if allocs := testing.AllocsPerRun(100, func() { got = owedPeers(l, "a", []string{"c"}, buf[:0]) }); allocs != 0 || !reflect.DeepEqual(users(got), []string{"b"}) {
		t.Fatalf("owed peers into a buffer: %v, %.0f allocs", users(got), allocs)
	}
}

func TestNewLinkIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewLinkID()
		if seen[id] {
			t.Fatal("duplicate link id")
		}
		seen[id] = true
		if len(id) < 10 || id[:2] != "L-" {
			t.Fatalf("id shape: %q", id)
		}
	}
}

// journalOfShape builds a journal record whose parts shape picks: the
// args nil, empty, of every scalar kind or with a float and a list too;
// the pending, committed and failed lists each nil, empty or one or two
// long; the creation time zero or not; and a commit row or a delete row
// (a DeleteLink's args, peers owed without tokens).
func journalOfShape(id, user, entity, token, key, s string, b bool, n int, fl float64, shape uint16, sec int64, zone int) *journalRec {
	ref, other := EntityRef{User: user, Entity: entity}, EntityRef{User: s, Entity: key}
	rec := &journalRec{
		ID: id, Action: s, Attempts: n, TraceID: token, SpanID: key,
		NextRetry: time.Unix(sec, int64(n)%1e9).In(time.FixedZone(s, zone)),
	}
	switch shape & 3 {
	case 1:
		rec.Args = wire.Args{}
	case 2:
		rec.Args = wire.Args(nil).With(wire.Str(key, s), wire.Bool("b", b), wire.Int("n", n), wire.Int64("i", int64(-n)), wire.Arg{Key: "nil"})
	case 3:
		rec.Args = wire.Args(nil).With(wire.Float(key, fl), wire.Strs("list", []string{s}), wire.Str("s", s))
	}
	cut := func(bits uint16) int { return int(bits&3) - 1 }
	if k := cut(shape >> 2); k >= 0 {
		rec.Pending = []journalTarget{{Ref: ref, Token: token}, {Ref: other, Token: s}}[:k]
	}
	if k := cut(shape >> 4); k >= 0 {
		rec.Committed = []EntityRef{other, ref}[:k]
	}
	if k := cut(shape >> 6); k >= 0 {
		rec.Failed = []EntityRef{ref, other}[:k]
	}
	if shape&(1<<8) != 0 {
		rec.Created = time.Unix(-sec, 0).UTC()
	}
	if shape&(1<<9) != 0 { // a decision's record, as a reservation's Commit carries it
		m := wire.Args{wire.Str("id", id), wire.Int("hour", n), wire.Strs("must", []string{user, s}), wire.Strs("reserved", []string{})}
		if !b { // or-groups as JSON text, and a list nested one level deeper
			m = m.With(wire.Raw("orGroups", json.RawMessage(`[{"name":"<g>","members":["a"],"k":1}]`)), wire.Sub(key, wire.Args{wire.Float("f", fl)}))
		}
		rec.Args = rec.Args.With(wire.Sub("rec", m))
	}
	if shape&(1<<10) != 0 {
		rec.Kind, rec.Action = kindDelete, ""
		rec.Args = wire.Args{wire.Str("id", id), wire.Strs("visited", []string{user, s})}
		for i := range rec.Pending {
			rec.Pending[i].Token = ""
		}
	}
	return rec
}

// FuzzJournalRecord: an outbox row's rec column is encoding/json's text,
// for commit and delete rows alike. The writer appends what json.Marshal
// writes for the record and fails where it fails, and the column decodes
// to what json.Unmarshal gives, for the writer's output and for any other
// text. A commit row names no kind, and a text with its kind taken out
// reads as the same record of kind commit: a row written before deletions
// were owed decodes unchanged.
func FuzzJournalRecord(f *testing.F) {
	f.Add("N-1", "phil", "slot:2026-08-07:14", "T-1", "meeting", "M-1", true, 3, 1.5, uint16(0x1ff), int64(1786000000), 0, `{"ID":"N-1"}`)
	f.Add("<a&b>", "\xff\x00\x1f\x7f", "\xe2\x80\xa8", "q \"x\" \\ \n\t", "héllo ✓", "", false, -1<<40, math.NaN(), uint16(0x0ab), int64(-62135596800), 3600, `{"ID":"a","Action":"","Args":{"n":-0,"s":"x","t":true,"z":null},"Pending":[],"Committed":null,"Failed":[{"user":"u","entity":"e"}],"Attempts":2,"NextRetry":"2026-08-07T14:00:00.5+02:00","Created":"0001-01-01T00:00:00Z","TraceID":"","SpanID":""}`)
	f.Add("", "", "", "", "", "", false, 0, math.Inf(1), uint16(0x003), int64(0), -5*3600-30*60, `{"id":"N","attempts":1e3}`)
	f.Add("N-2", "andy", "slot:2026-08-07:14", "T-2", "k", "M-2", true, 14, 0.5, uint16(0x3ff), int64(1786000000), 0, `{"ID":"N-2","Action":"cal.reserve","Args":{"rec":{"id":"M-2","must":["andy"]}},"Pending":null,"Committed":null,"Failed":null,"Attempts":0,"NextRetry":"2026-08-07T14:00:00Z","Created":"2026-08-07T14:00:00Z","TraceID":"","SpanID":""}`)
	f.Add("N", "u", "e", "t", "k", "v", true, 1<<62, -0.0, uint16(0x156), int64(253402300800), 24*3600, `{"ID":"N","Action":"a","Args":{"n":99999999999999999999999999999999999999,"n":2},"Pending":null,"Committed":null,"Failed":null,"Attempts":0,"NextRetry":"2026-08-07T14:00:00Z","Created":"2026-13-07T14:00:00Z","TraceID":"","SpanID":""}`)
	f.Add("L-1", "andy", "slot:2026-08-07:14", "", "", "phil", false, 1, 0.0, uint16(0x504), int64(1786000000), 0, `{"ID":"L-1","Kind":"delete","Action":"","Args":{"id":"L-1","visited":["phil"]},"Pending":[{"ref":{"user":"andy","entity":""},"token":""}],"Committed":null,"Failed":null,"Attempts":1,"NextRetry":"2026-08-07T14:00:00.5Z","Created":"2026-08-07T14:00:00Z","TraceID":"","SpanID":""}`)
	f.Add("L-2", "c", "", "", "", "a", true, 30, 0.0, uint16(0x408), int64(1786000000), 3600, `{"ID":"L-2","Kind":"","Action":"","Args":null,"Pending":[],"Committed":null,"Failed":null,"Attempts":30,"NextRetry":"2026-08-07T14:00:00Z","Created":"0001-01-01T00:00:00Z","TraceID":"","SpanID":""}`)
	f.Fuzz(func(t *testing.T, id, user, entity, token, key, s string, b bool, n int, fl float64, shape uint16, sec int64, zone int, text string) {
		rec := journalOfShape(id, user, entity, token, key, s, b, n, fl, shape, sec, zone)
		want, wantErr := json.Marshal(rec)
		row, err := rec.body(codecJournal, rec.NextRetry)
		if wantErr != nil {
			if want := "links: journal encode: " + wantErr.Error(); fmt.Sprint(err) != want {
				t.Fatalf("body error = %v, json.Marshal says %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("body: %v; json.Marshal succeeds", err)
		}
		if row.Str("rec") != string(want) {
			t.Fatalf("body writes %s\njson.Marshal writes %s", row.Str("rec"), want)
		}
		if rec.Kind != kindCommit {
			noKind := strings.Replace(row.Str("rec"), `,"Kind":"delete"`, "", 1)
			got, err := jsonrec.Decode(noKind, readJournal)
			want, _ := jsonrec.Decode(row.Str("rec"), readJournal)
			want.Kind = kindCommit
			if err != nil || !reflect.DeepEqual(got, want) || strings.Contains(noKind, `"Kind"`) {
				t.Fatalf("%s without its kind decodes to %#v (%v), want %#v", noKind, got, err, want)
			}
		}
		for _, doc := range []string{row.Str("rec"), text} {
			got, err := jsonrec.Decode(doc, readJournal)
			var want journalRec
			wantErr := json.Unmarshal([]byte(doc), &want)
			if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%q decodes to %#v (%v), json.Unmarshal to %#v (%v)", doc, got, err, want, wantErr)
			}
		}
	})
}

// TestJournalRecordReadInPlace: the record a negotiation journals is read
// by the reader, not handed to json.Unmarshal.
func TestJournalRecordReadInPlace(t *testing.T) {
	rec := &journalRec{
		ID: "N-0001f00dcafe0001", Action: "reserve",
		Args:      wire.Args{wire.Str("meeting", "M-0001f00dcafe0001"), wire.Int("priority", 2), wire.Bool("pinned", true)},
		Pending:   []journalTarget{{Ref: EntityRef{User: "andy", Entity: "slot:2026-08-07:14"}, Token: "T-1"}},
		Committed: []EntityRef{},
		NextRetry: time.Date(2026, 8, 7, 14, 0, 0, 500, time.UTC), Created: time.Date(2026, 8, 7, 13, 59, 0, 0, time.UTC),
	}
	row, err := rec.body(codecJournal, rec.NextRetry)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := readJournal(row.Str("rec"))
	var want journalRec
	if err := json.Unmarshal([]byte(row.Str("rec")), &want); err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("reader: %#v (read %v)\njson.Unmarshal: %#v (%v)", got, ok, want, err)
	}
}

// TestQueuedOnAllocs: asking whether a tentative link waits on an entity
// reads the link rows where they are stored.
func TestQueuedOnAllocs(t *testing.T) {
	m, err := NewManager("andy", store.NewDB(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	slot := fmt.Sprint("slot:2026-08-07:", 14) // built at run time, as a caller's is
	for i, sub := range []Subtype{Permanent, Tentative} {
		l := &Link{ID: fmt.Sprint("L-", i), Type: Negotiation, Subtype: sub, Constraint: And,
			Owner: EntityRef{User: "andy", Entity: slot}, Targets: []EntityRef{{User: "phil", Entity: slot}}}
		if err := m.db.Unit(context.Background(), func(u *store.Tx) error { return m.AddLink(u, l) }); err != nil {
			t.Fatal(err)
		}
	}
	if !m.queuedOn(slot, "L-0") || m.queuedOn(slot, "L-1") || m.queuedOn("slot:other", "L-0") {
		t.Fatal("queuedOn does not see the one tentative link L-1")
	}
	queued := false
	if allocs := testing.AllocsPerRun(100, func() { queued = m.queuedOn(slot, "L-0") }); allocs != 0 || !queued {
		t.Fatalf("queuedOn costs %.0f allocs, want 0", allocs)
	}
}

// TestMarkReplyAllocs: a participant's Mark reply is its token, a typed
// string result, and the coordinator reads it back as it is: no
// allocation on either side once the frame is decoded.
func TestMarkReplyAllocs(t *testing.T) {
	const token = "T-0001f00dcafe0001"
	var tok string
	allocs := testing.AllocsPerRun(100, func() {
		res, _ := wire.Marshal(token)
		_ = wire.Unmarshal(res, &tok)
	})
	if tok != token || allocs != 0 {
		t.Fatalf("Mark reply round trip: token %q, %.0f allocs; want %q, none", tok, allocs, token)
	}
}
