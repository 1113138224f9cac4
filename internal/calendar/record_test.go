package calendar

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonrec"
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

// sameMeetingDecode: the record decodes to what json.Unmarshal gives for
// doc, and fails where Unmarshal fails.
func sameMeetingDecode(t *testing.T, doc string) {
	t.Helper()
	var want Meeting
	wantErr := json.Unmarshal([]byte(doc), &want)
	got, ok := meetingFromDoc(doc)
	if ok != (wantErr == nil) || ok && !reflect.DeepEqual(*got, want) {
		t.Fatalf("record %q decodes to %+v (ok %v), json.Unmarshal to %+v (%v)", doc, got, ok, want, wantErr)
	}
}

// FuzzMeetingRecord: the meeting record is encoding/json's text. The
// writer appends what json.Marshal writes for the Meeting, and the record
// decodes to what json.Unmarshal gives, for the writer's output and for
// any other text. The typed form a Commit and a MeetingUpdate carry reads
// back, through a v3 frame and through the JSON form a journal row and a
// QueryOutcome answer hold, as a record whose encoding is the text (see
// sameThroughArgs); one with no id is bad arguments.
func FuzzMeetingRecord(f *testing.F) {
	f.Add("M-1", "standup", "phil", "andy", "2003-04-22", 9, 0, uint16(0x40c3), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":0,"must":[]}`)
	f.Add("M-<2>", "q&a \"x\" \\ \n\t\xe2\x80\xa8", "\xff", "\x00\x1f\x7f", "", -3, -1<<40, uint16(0xffff), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":01},"status":"s","priority":0}`)
	f.Add("", "", "", "", "", 0, 0, uint16(0x0a55), `{"id":"M", "title":"t"}`)
	f.Add("M-3", "héllo ✓", "a", "b", "d", 23, 7, uint16(0x3aaa), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":-0,"orGroups":[{"members":null,"k":2}],"linkID":"L"}`)
	f.Add("M-4", "t", "a", "b", "d", 1, 1, uint16(0x0800), `{"id":"M","title":"t","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":99999999999999999999}`)
	f.Add("M-5", "t", "a", "b", "d", 1, 1, uint16(0x1c00), `{"ID":"M","title":"tA","initiator":"a","slot":{"day":"d","hour":1},"status":"s","priority":0} `)
	f.Fuzz(func(t *testing.T, id, title, u1, u2, day string, hour, prio int, shape uint16, text string) {
		m := meetingOfShape(id, title, u1, u2, day, hour, prio, shape)
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		doc := encodeMeeting(m)
		if doc != string(want) {
			t.Fatalf("encodeMeeting differs from json.Marshal\n got %s\nwant %s", doc, want)
		}
		sameMeetingDecode(t, doc)
		sameMeetingDecode(t, text)
		sameThroughArgs(t, m, doc)
	})
}

// sameThroughArgs reads m back from recordArgs after each trip it takes:
// a v3 frame, and the JSON form read by UnmarshalJSON and, where the text
// is in its subset, by ReadArgs. The record it reads encodes to doc, the
// text m's initiator stores. JSON carries no invalid UTF-8, so a string
// that is not valid UTF-8 comes back as U+FFFD from the JSON form (and
// from an or-group, which travels as JSON text), as it does from doc:
// there the record must decode as doc decodes instead.
func sameThroughArgs(t *testing.T, m *Meeting, doc string) {
	t.Helper()
	rec := wire.Args{wire.Sub("rec", recordArgs(m))}
	f, err := wire.EncodeFrameV3(&wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
		Service: "cal.andy", Method: "MeetingUpdate", Args: rec}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.ReadFrame(bytes.NewReader(f.Bytes()))
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
	want, _ := meetingFromDoc(doc)
	for how, a := range trips {
		got, err := meetingFromArgs(a.Sub("rec"))
		switch {
		case m.ID == "":
			if wire.CodeOf(err) != wire.CodeBadArgs {
				t.Fatalf("%s: a record with no id reads as %+v, %v; want bad-args", how, got, err)
			}
		case err != nil:
			t.Fatalf("%s: %v", how, err)
		case encodeMeeting(&got) == doc:
		case strings.Contains(doc, `\ufffd`): // how doc holds a byte that is not UTF-8
			if back, _ := meetingFromDoc(encodeMeeting(&got)); !reflect.DeepEqual(back, want) {
				t.Fatalf("%s: record decodes as %+v, doc as %+v", how, back, want)
			}
		default:
			t.Fatalf("%s: record encodes as %s\nwant %s", how, encodeMeeting(&got), doc)
		}
	}
}

var (
	docSink     string
	meetingSink *Meeting
)

// TestMeetingRecordAllocs pins what the record codec costs for a
// three-participant meeting. A decode is the record and one slice its
// lists are carved from (3 while each list had its own).
func TestMeetingRecordAllocs(t *testing.T) {
	m := &Meeting{ID: "M-0001f00dcafe0001", Title: "design review", Initiator: "phil",
		Slot: Slot{Day: "2026-08-07", Hour: 14}, Status: StatusConfirmed, Priority: 2,
		Must: []string{"andy", "beth"}, Reserved: []string{"phil", "andy", "beth"}, LinkID: "L-0001f00dcafe0002"}
	doc := encodeMeeting(m)
	for _, tc := range []struct {
		name string
		most float64
		run  func()
	}{
		{"encode", 1, func() { docSink = encodeMeeting(m) }},           // encoding/json: 2
		{"decode", 2, func() { meetingSink, _ = meetingFromDoc(doc) }}, // encoding/json: 24
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.most {
			t.Errorf("%s of a meeting record costs %.0f allocs, want at most %.0f", tc.name, got, tc.most)
		}
	}
}

// TestParticipantsOrder: the initiator, the musts, the supervisors and the
// or-groups' members, each user once where first seen, none empty, in one
// allocation.
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
		})
	}
}
