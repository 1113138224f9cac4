package clock

import "time"

// Set jumps the clock to t (which must not be earlier than the current
// time) and fires due waiters as Advance does.
func (f *Fake) Set(t time.Time) {
	d := t.Sub(f.Now())
	if d < 0 {
		panic("clock: Set would move the fake clock backwards")
	}
	f.Advance(d)
}
