package wire

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFrames is the file TestFrameGolden holds the frames to.
var goldenFrames = filepath.Join("testdata", "mark_commit.hex")

// TestFrameGolden pins the bytes of a calendar reservation's Mark and
// Commit requests, as a coordinator's links manager sends them over
// calendar.reserveArgs, encoded in that order through one fresh
// NameTable, then of the replies the participant sends back through
// its own: the Mark's token, and a GetFreeSlots reply's words. Argument
// lists go out in their order, so the frames are reproducible, and a
// format change shows as a diff to the file, one frame a line in hex.
// After an intended change, the failing test writes the new file and
// prints the cp that refreshes it.
func TestFrameGolden(t *testing.T) {
	reserve := Args{
		Str("meeting", "M-0001f00dcafe-000000000001"), Int("priority", 0), Bool("allowBump", false),
		Str("day", "2003-04-22"), Int("hour", 10),
	}
	doc := `{"id":"M-0001f00dcafe-000000000001","title":"standup","slot":{"day":"2003-04-22","hour":10}}`
	request := func(id uint64, method string, args Args) *Envelope {
		return &Envelope{Kind: KindRequest, Request: &Request{
			ID: id, Service: "links.andy", Method: method, Caller: "phil", DeadlineMs: 29998, Args: args,
		}}
	}
	var tab NameTable
	var got strings.Builder
	for _, env := range []*Envelope{
		request(1, "Mark", Args{
			Str("entity", "slot:2003-04-22:10"), Str("action", "reserve"), Sub("args", reserve),
			Str("nid", "N-0001f00dcafe0002-000000000001"),
		}),
		request(2, "Commit", Args{
			Str("entity", "slot:2003-04-22:10"), Str("token", "0001f00dcafe0003-1"), Str("action", "reserve"),
			Sub("args", reserve.With(Str("doc", doc))), Str("nid", "N-0001f00dcafe0002-000000000001"),
		}),
	} {
		got.WriteString(hex.EncodeToString(encodeThrough(t, &tab, env)) + "\n")
	}
	var replies NameTable
	token, _ := Marshal("0001f00dcafe0003-1")
	words, _ := Marshal([]uint64{35184372088831})
	for _, resp := range []*Response{{ID: 1, OK: true, Result: token}, {ID: 3, OK: true, Result: words}} {
		got.WriteString(hex.EncodeToString(encodeThrough(t, &replies, &Envelope{Kind: KindResponse, Response: resp})) + "\n")
	}
	want, err := os.ReadFile(goldenFrames)
	if err == nil && got.String() == string(want) {
		return
	}
	f, ferr := os.CreateTemp("", "mark_commit-*.hex")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	if _, ferr := f.WriteString(got.String()); ferr != nil {
		t.Fatal(ferr)
	}
	t.Errorf("the frames differ from %s (%v); if the change is intended, refresh it from internal/wire and commit:\n  cp %s %s",
		goldenFrames, err, f.Name(), goldenFrames)
}
