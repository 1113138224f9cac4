package calendar

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"testing"

	"repro/internal/wire"
)

// TestMeetingIDAndSlotLabel pins the meeting id's format, links' ordered
// id under "M-" (the process prefix, then the counter's length digit and
// the counter in base 36), so ids sort in mint order; and a slot's
// label, which is what fmt wrote for it.
func TestMeetingIDAndSlotLabel(t *testing.T) {
	shape := regexp.MustCompile(`^M-[0-9a-z]{13}-[1-9a-d][0-9a-z]{1,13}$`)
	prev := newMeetingID()
	for i := 0; i < 100; i++ {
		id := newMeetingID()
		if !shape.MatchString(id) || id <= prev {
			t.Fatalf("meeting id %q after %q: want the shape %s, sorting after", id, prev, shape)
		}
		prev = id
	}
	for _, h := range []int{-10, -1, 0, 9, 10, 23, 100} {
		s := Slot{Day: "2003-04-22", Hour: h}
		if got, want := s.String(), fmt.Sprintf("%s %02d:00", s.Day, s.Hour); got != want {
			t.Errorf("Slot%+v.String() = %q, fmt writes %q", s, got, want)
		}
	}
}

// TestAvailabilityDecodeRefuses: a reply must be a word list of exactly
// the window's words with no bit set beyond its last slot; the words as
// JSON text are not one.
func TestAvailabilityDecodeRefuses(t *testing.T) {
	week, err := NewWindow("2003-04-21", "2003-04-25", nil) // 45 slots
	if err != nil {
		t.Fatal(err)
	}
	result := func(v any) wire.Value {
		res, err := wire.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const refused = -1
	for _, c := range []struct {
		reply wire.Value
		want  int
	}{
		{result([]uint64{35184372088831}), 45}, // every slot free
		{result([]uint64{0}), 0},
		{result([]uint64{35184372088832}), refused}, // bit 45
		{result([]uint64{1, 0}), refused},
		{result([]uint64{}), refused},
		{result(nil), refused},
		{result(json.RawMessage(`[35184372088831]`)), refused}, // JSON text
		{result(json.RawMessage(`[{"day":"x"}]`)), refused},
		{result("35184372088831"), refused},
		{result(true), refused},
	} {
		a, err := decodeAvailability(week, c.reply)
		if got := len(a.Slots()); (err != nil) != (c.want == refused) || err == nil && got != c.want {
			t.Errorf("reply %+v: %d slots, %v; want %d", c.reply, got, err, c.want)
		}
	}
	// A window of a whole number of words has no tail to check.
	full, err := newWindow("2003-04-21", "2003-04-28", 0xff00) // 8 days x 8 hours
	if err != nil {
		t.Fatal(err)
	}
	if a, err := decodeAvailability(full, result([]uint64{math.MaxUint64})); err != nil || len(a.Slots()) != 64 {
		t.Fatalf("64 free slots of 64: %v", err)
	}
}

// TestWindowArgsAreItsText: the days a window's request names are the
// text it was parsed from, which is the text its days format as, since
// the day layout reads nothing else; naming them formats nothing.
func TestWindowArgsAreItsText(t *testing.T) {
	for _, c := range [][2]string{
		{"2003-04-21", "2003-04-25"}, {"0003-02-28", "0003-03-01"}, {"2004-02-28", "2004-03-01"}, {"2003-12-31", "2004-01-01"},
		{"2003-4-21", "2003-04-25"}, {"+003-04-21", "2003-04-25"}, {"2003-04-21", "2003-02-29"}, {" 2003-04-21", "2003-04-25"},
	} {
		w, err := NewWindow(c[0], c[1], nil)
		if err != nil {
			continue
		}
		var a wire.Args
		if allocs := testing.AllocsPerRun(10, func() { a = w.args() }); allocs > 1 {
			t.Errorf("%s..%s: naming the window costs %.0f allocs, want the list's 1", c[0], c[1], allocs)
		}
		if a.String("from") != w.day(0) || a.String("to") != w.day(w.days-1) || a.String("from") != c[0] {
			t.Errorf("%s..%s: the request names %s..%s, the window's days are %s..%s", c[0], c[1], a.String("from"), a.String("to"), w.day(0), w.day(w.days-1))
		}
	}
}

// replyFrame frames the encoding of a result value as the OK response
// to call 1, a connection's first frame, and valueBytes is that encoding
// of v.
func replyFrame(value []byte) []byte {
	body := append([]byte{0xB6, 2, 1, 1}, value...) // version, response, id 1, ok
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func valueBytes(t testing.TB, v any) []byte {
	res, err := wire.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	f, err := new(wire.NameTable).EncodeFrame(&wire.Envelope{Kind: wire.KindResponse, Response: &wire.Response{ID: 1, OK: true, Result: res}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	frame := f.Bytes()
	value := append([]byte(nil), frame[5:]...)
	if !bytes.Equal(replyFrame(value), frame) {
		t.Fatalf("replyFrame does not frame %x as the codec does: %x", value, frame)
	}
	return value
}

// FuzzAvailabilityDecode: whatever value answers a GetFreeSlots, given
// as its bytes in an OK response's frame, reading it never panics and
// never yields a slot outside the window asked about. It accepts a word
// list, and only one, of the window's words, the words the value renders
// as JSON, and what it accepts encodes back to the same words.
func FuzzAvailabilityDecode(f *testing.F) {
	wordsTag := valueBytes(f, []uint64{})[0]
	f.Add(valueBytes(f, []uint64{35184372088831}), uint16(4), uint32(0x3fe00))
	f.Add(valueBytes(f, []uint64{math.MaxUint64, 3}), uint16(10), uint32(0x3f))
	f.Add(valueBytes(f, []uint64{1, 2, 3}), uint16(200), uint32(1))
	f.Add(valueBytes(f, nil), uint16(0), uint32(1<<24-1))
	f.Add(valueBytes(f, []Slot{{Day: "2003-04-21", Hour: 9}}), uint16(0), uint32(0x200))
	f.Add(valueBytes(f, json.RawMessage(`[35184372088831]`)), uint16(4), uint32(0x3fe00))
	f.Add(append([]byte{wordsTag, 1}, bytes.Repeat([]byte{0xff}, 10)...), uint16(0), uint32(1)) // past 2^64
	f.Add(valueBytes(f, "1"), uint16(0), uint32(1))
	f.Add(valueBytes(f, []uint64{}), uint16(0), uint32(1))
	f.Fuzz(func(t *testing.T, value []byte, moreDays uint16, hours uint32) {
		w, err := newWindow("2003-04-21", addDays("2003-04-21", int(moreDays)), hours%(1<<24))
		if err != nil || hours%(1<<24) == 0 {
			t.Skip() // over the cap, or no hour at all: no such window is ever asked about
		}
		env, err := new(wire.Decoder).Decode(replyFrame(value))
		if err != nil {
			return // the frame refused it: no reply reaches the calendar
		}
		a, err := decodeAvailability(w, env.Response.Result)
		var want []uint64
		text, _ := json.Marshal(env.Response.Result)
		wantErr := json.Unmarshal(text, &want)
		fits := len(value) > 0 && value[0] == wordsTag && wantErr == nil && len(want) == (w.Slots()+63)/64 &&
			(w.Slots()%64 == 0 || want[len(want)-1]>>(w.Slots()%64) == 0)
		if (err == nil) != fits || err == nil && !slices.Equal(a.words, want) {
			t.Fatalf("%x decodes to %v (%v); the value renders %s", value, a.words, err, text)
		}
		if err != nil {
			return
		}
		slots, firstDay, lastDay := a.Slots(), w.day(0), w.day(w.days-1)
		for i, s := range slots {
			if s.Day < firstDay || s.Day > lastDay || s.Hour < 0 || s.Hour > 23 || w.hours&(1<<s.Hour) == 0 {
				t.Fatalf("slot %v is outside the window %s..%s at hours %#x", s, firstDay, lastDay, w.hours)
			}
			if i > 0 && (s.Day < slots[i-1].Day || s.Day == slots[i-1].Day && s.Hour <= slots[i-1].Hour) {
				t.Fatalf("slots out of order: %v then %v", slots[i-1], s)
			}
		}
		if len(slots) > w.Slots() {
			t.Fatalf("%d slots from a window of %d", len(slots), w.Slots())
		}
		again := valueBytes(t, a.words)
		env, err = new(wire.Decoder).Decode(replyFrame(again))
		if err != nil {
			t.Fatal(err)
		}
		if b, err := decodeAvailability(w, env.Response.Result); err != nil || !slices.Equal(a.words, b.words) {
			t.Fatalf("words %v encode to %x, which decodes to %v, %v", a.words, again, b.words, err)
		}
	})
}
