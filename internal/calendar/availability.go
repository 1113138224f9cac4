package calendar

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wire"
)

// MaxWindowSlots caps the slots one window may span, so a small request
// cannot make a device walk years of days: 4096 slots is a working year
// at the default hours, and 64 words of reply.
const MaxWindowSlots = 4096

const dayLayout = "2006-01-02"

// Window is a normalised search window: the days first..last and a set
// of candidate hours. Slot i of the window is day i/len(hours), at the
// (i%len(hours))-th hour in ascending order; every Availability over the
// window numbers its bits that way.
type Window struct {
	first    time.Time
	days     int
	hours    uint32 // bit h set = hour h is a candidate
	from, to string // the first and last day: text dayLayout parsed, so as it formats
}

func badWindow(format string, a ...any) error {
	return &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "calendar: " + fmt.Sprintf(format, a...)}
}

// NewWindow normalises a search window. hours may come unsorted and with
// duplicates and is left untouched; none means DefaultHours. A malformed
// or inverted day range, an hour outside 0–23 and a window of more than
// MaxWindowSlots slots are CodeBadArgs.
func NewWindow(fromDay, toDay string, hours []int) (Window, error) {
	if len(hours) == 0 {
		hours = DefaultHours
	}
	for _, h := range hours {
		if h < 0 || h > 23 {
			return Window{}, badWindow("hour %d is not in 0-23", h)
		}
	}
	return newWindow(fromDay, toDay, hourMask(hours))
}

func newWindow(fromDay, toDay string, hours uint32) (Window, error) {
	first, err1 := time.Parse(dayLayout, fromDay)
	last, err2 := time.Parse(dayLayout, toDay)
	switch {
	case err1 != nil || err2 != nil:
		return Window{}, badWindow("window %q..%q is not two YYYY-MM-DD days", fromDay, toDay)
	case last.Before(first):
		return Window{}, badWindow("window %s..%s is inverted", fromDay, toDay)
	}
	w := Window{first: first, days: int(last.Sub(first)/(24*time.Hour)) + 1, hours: hours, from: fromDay, to: toDay}
	if w.Slots() > MaxWindowSlots {
		return Window{}, badWindow("window %s..%s spans more than %d slots", fromDay, toDay, MaxWindowSlots)
	}
	return w, nil
}

// hourMask is the set of hours as the window keeps it and the wire
// carries it: bit h set = hour h.
func hourMask(hours []int) uint32 {
	var mask uint32
	for _, h := range hours {
		mask |= 1 << h
	}
	return mask
}

// windowFromArgs reads the window a GetFreeSlots request names.
func windowFromArgs(args wire.Args) (Window, error) {
	hours := int64(hourMask(DefaultHours))
	if args.Has("hours") {
		if hours = args.Int64("hours"); hours <= 0 || hours >= 1<<24 {
			return Window{}, badWindow("hours must be a set of hours 0-23, one bit each")
		}
	}
	return newWindow(args.String("from"), args.String("to"), uint32(hours))
}

// args is the window as a GetFreeSlots request names it: the days as the
// text they were parsed from, the hour set as one int, and not at all
// when it is the default.
func (w Window) args() wire.Args {
	a := wire.Args{wire.Str("from", w.from), wire.Str("to", w.to)}
	if w.hours != hourMask(DefaultHours) {
		a = append(a, wire.Int("hours", int(w.hours)))
	}
	return a
}

// Slots is the number of slots in the window.
func (w Window) Slots() int { return w.days * bits.OnesCount32(w.hours) }

// day formats the window's i-th day.
func (w Window) day(i int) string { return w.first.AddDate(0, 0, i).Format(dayLayout) }

// Availability is one user's free/busy state over a window: bit i set
// means slot i is free. It is what a calendar scans its table into, what
// GetFreeSlots answers with, and what a find intersects. Its words are
// the wire form, bit i at words[i/64] bit i%64: the request already names
// the window, so nothing else travels.
type Availability struct {
	win   Window
	words []uint64
}

// decodeAvailability reads the reply to a GetFreeSlots over w: a word
// list, which the reply's frame decoded into words of its own. Any other
// value, a list of the wrong length, and one with a bit set beyond the
// window are refused.
func decodeAvailability(w Window, reply wire.Value) (Availability, error) {
	n := w.Slots()
	words, ok := reply.Words()
	if !ok {
		return Availability{}, fmt.Errorf("calendar: availability reply is not a word list")
	}
	a := Availability{win: w, words: words}
	if len(a.words) != (n+63)/64 {
		return Availability{}, fmt.Errorf("calendar: availability reply has %d words, the window %d slots", len(a.words), n)
	}
	if n%64 != 0 && a.words[len(a.words)-1]>>(n%64) != 0 {
		return Availability{}, fmt.Errorf("calendar: availability reply sets a bit beyond the window's %d slots", n)
	}
	return a, nil
}

func (a Availability) free(i int) bool { return a.words[i/64]&(1<<(i%64)) != 0 }

// and keeps the slots that are free in b as well (same window).
func (a Availability) and(b Availability) {
	for i := range a.words {
		a.words[i] &= b.words[i]
	}
}

// requireQuorum keeps the slots at which at least k of members are free.
func (a Availability) requireQuorum(k int, members []Availability) {
	for i, n := 0, a.win.Slots(); i < n; i++ {
		if !a.free(i) {
			continue
		}
		have := 0
		for _, m := range members {
			if m.free(i) {
				have++
			}
		}
		if have < k {
			a.words[i/64] &^= 1 << (i % 64)
		}
	}
}

// Slots lists the free slots, sorted by day then hour.
func (a Availability) Slots() []Slot {
	n := 0
	for _, w := range a.words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]Slot, 0, n)
	i := 0
	for d := 0; d < a.win.days; d++ {
		day := ""
		for hs := a.win.hours; hs != 0; hs &= hs - 1 {
			if a.free(i) {
				if day == "" {
					day = a.win.day(d)
				}
				out = append(out, Slot{Day: day, Hour: bits.TrailingZeros32(hs)})
			}
			i++
		}
	}
	return out
}

// availability scans this user's slots over w: one point read per slot,
// none of which allocates. Each day is formatted into a stack buffer:
// the point reads do not keep it.
func (c *Calendar) availability(w Window) Availability {
	a := Availability{win: w, words: make([]uint64, (w.Slots()+63)/64)}
	busy := false
	held := func(r store.Row) { busy = r.Str("meeting") != "" }
	var buf [len(dayLayout)]byte
	i := 0
	for d := 0; d < w.days; d++ {
		day := string(w.first.AddDate(0, 0, d).AppendFormat(buf[:0], dayLayout))
		for hs := w.hours; hs != 0; hs &= hs - 1 {
			busy = false
			c.slots.View(held, day, int64(bits.TrailingZeros32(hs)))
			if !busy {
				a.words[i/64] |= 1 << (i % 64)
			}
			i++
		}
	}
	return a
}

// QueryAvailability asks each user's calendar for its availability over
// w, all in one group round trip; result i is users[i]'s. It is the one
// client of GetFreeSlots.
func QueryAvailability(ctx context.Context, eng *engine.Engine, w Window, users []string) ([]Availability, []error) {
	services := make([]string, len(users))
	for i, u := range users {
		services[i] = ServiceFor(u)
	}
	avail, errs := make([]Availability, len(users)), make([]error, len(users))
	for i, r := range eng.GroupInvoke(ctx, services, "GetFreeSlots", w.args()) {
		if errs[i] = r.Err; r.Err == nil {
			avail[i], errs[i] = decodeAvailability(w, r.Result)
		}
	}
	return avail, errs
}
