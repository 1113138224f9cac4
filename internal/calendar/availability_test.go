package calendar

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"repro/internal/wire"
)

// TestMeetingIDAndSlotLabel pins the meeting id's format, the process
// prefix and the counter zero-padded to 12 digits, so ids sort in mint
// order; and a slot's label, which is what fmt wrote for it.
func TestMeetingIDAndSlotLabel(t *testing.T) {
	shape := regexp.MustCompile(`^M-[0-9a-f]{12}-[0-9]{12}$`)
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

// TestAvailabilityDecodeRefuses: a reply must be exactly the window's
// words with no bit set beyond its last slot.
func TestAvailabilityDecodeRefuses(t *testing.T) {
	week, err := NewWindow("2003-04-21", "2003-04-25", nil) // 45 slots
	if err != nil {
		t.Fatal(err)
	}
	const refused = -1
	for reply, want := range map[string]int{
		`[35184372088831]`:       45, // every slot free
		`[0]`:                    0,
		`[35184372088832]`:       refused, // bit 45
		`[1,0]`:                  refused,
		`[]`:                     refused,
		`null`:                   refused,
		`[-1]`:                   refused,
		`[1.5]`:                  refused,
		`[{"day":"x"}]`:          refused,
		`[18446744073709551616]`: refused, // 2^64
		``:                       refused,
	} {
		a, err := decodeAvailability(week, json.RawMessage(reply))
		if got := len(a.Slots()); (err != nil) != (want == refused) || err == nil && got != want {
			t.Errorf("reply %s: %d slots, %v; want %d", reply, got, err, want)
		}
	}
	// A window of a whole number of words has no tail to check.
	full, err := newWindow("2003-04-21", "2003-04-28", 0xff00) // 8 days x 8 hours
	if err != nil {
		t.Fatal(err)
	}
	if a, err := decodeAvailability(full, json.RawMessage(`[18446744073709551615]`)); err != nil || len(a.Slots()) != 64 {
		t.Fatalf("64 free slots of 64: %v", err)
	}
}

// FuzzAvailabilityDecode: whatever bytes answer a GetFreeSlots, decoding
// them never panics and never yields a slot outside the window asked
// about; it accepts what json.Unmarshal reads as the window's words, as
// the words json.Unmarshal reads, and what it accepts encodes back to the
// same words.
func FuzzAvailabilityDecode(f *testing.F) {
	f.Add([]byte(`[35184372088831]`), uint16(4), uint32(0x3fe00))
	f.Add([]byte(`[18446744073709551615,3]`), uint16(10), uint32(0x3f))
	f.Add([]byte(`[1,2,3]`), uint16(200), uint32(1))
	f.Add([]byte(`null`), uint16(0), uint32(1<<24-1))
	f.Add([]byte(`[{"day":"2003-04-21","hour":9}]`), uint16(0), uint32(0x200))
	f.Add([]byte(` [ 35184372088831 ] `), uint16(4), uint32(0x3fe00))
	f.Add([]byte(`[18446744073709551616]`), uint16(0), uint32(1))
	f.Add([]byte(`[-1]`), uint16(0), uint32(1))
	f.Add([]byte(`[1.0]`), uint16(0), uint32(1))
	f.Fuzz(func(t *testing.T, reply []byte, moreDays uint16, hours uint32) {
		w, err := newWindow("2003-04-21", addDays("2003-04-21", int(moreDays)), hours%(1<<24))
		if err != nil || hours%(1<<24) == 0 {
			t.Skip() // over the cap, or no hour at all: no such window is ever asked about
		}
		a, err := decodeAvailability(w, reply)
		var want []uint64
		wantErr := json.Unmarshal(reply, &want)
		fits := wantErr == nil && len(want) == (w.Slots()+63)/64 && (w.Slots()%64 == 0 || want[len(want)-1]>>(w.Slots()%64) == 0)
		if (err == nil) != fits || err == nil && !slices.Equal(a.words, want) {
			t.Fatalf("%q decodes to %v (%v); json.Unmarshal reads %v (%v)", reply, a.words, err, want, wantErr)
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
		raw, err := wire.Marshal(a.words)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := decodeAvailability(w, raw); err != nil || !slices.Equal(a.words, b.words) {
			t.Fatalf("words %v encode to %s, which decodes to %v, %v", a.words, raw, b.words, err)
		}
	})
}
