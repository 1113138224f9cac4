package calendar

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// goldenFrames is the file TestFrameGolden holds the frames to.
var goldenFrames = filepath.Join("testdata", "mark_commit.hex")

// TestFrameGolden pins the bytes of a reservation's Mark and Commit
// requests as a coordinator sends them to one must: the Mark carrying
// reserveArgs, the Commit those arguments and the record as decided
// under "rec" in recordArgs' form, both under ActionReserve, encoded in
// that order through one fresh NameTable; then of the replies the
// participant sends back through its own: the Mark's token, and a
// GetFreeSlots reply's words. The ids are fixed ones of the links id
// scheme. Argument lists go out in their order, so the frames are
// reproducible, and a change to the frame format or to either
// argument builder shows as a diff to the file, one frame a line in hex.
// After an intended change, the failing test writes the new file and
// prints the cp that refreshes it.
func TestFrameGolden(t *testing.T) {
	const nid, token = "N-00001f00dcafe-13", "00001f00dcafe-1"
	m := &Meeting{
		ID: "M-00001f00dcafe-11", Title: "standup", Initiator: "phil",
		Slot: Slot{Day: "2003-04-22", Hour: 10}, Must: []string{"andy"}, LinkID: "L-00001f00dcafe-12",
	}
	args, entity := reserveArgs(m, false), m.Slot.Entity()
	m.Reserved, m.Missing = []string{"phil"}, []string{"andy"}
	decided := m.holding(slotRefs([]string{"andy"}, entity))
	request := func(id uint64, method string, args wire.Args) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
			ID: id, Service: "links.andy", Method: method, Caller: "phil", DeadlineMs: 29998, Args: args,
		}}
	}
	var got strings.Builder
	encode := func(tab *wire.NameTable, env *wire.Envelope) {
		f, err := tab.EncodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(hex.EncodeToString(f.Bytes()) + "\n")
		f.Release()
	}
	var tab wire.NameTable
	encode(&tab, request(1, "Mark", wire.Args{
		wire.Str("entity", entity), wire.Str("action", ActionReserve), wire.Sub("args", args), wire.Str("nid", nid),
	}))
	encode(&tab, request(2, "Commit", wire.Args{
		wire.Str("entity", entity), wire.Str("token", token), wire.Str("action", ActionReserve),
		wire.Sub("args", args.With(wire.Sub("rec", recordArgs(decided)))), wire.Str("nid", nid),
	}))
	var replies wire.NameTable
	tok, _ := wire.Marshal(token)
	words, _ := wire.Marshal([]uint64{35184372088831})
	for _, resp := range []*wire.Response{{ID: 1, OK: true, Result: tok}, {ID: 3, OK: true, Result: words}} {
		encode(&replies, &wire.Envelope{Kind: wire.KindResponse, Response: resp})
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
	t.Errorf("the frames differ from %s (%v); if the change is intended, refresh it from internal/calendar and commit:\n  cp %s %s",
		goldenFrames, err, f.Name(), goldenFrames)
}
