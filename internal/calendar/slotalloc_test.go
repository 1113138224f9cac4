package calendar

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/links"
	"repro/internal/store"
)

// TestSetSlotAllocs: setSlot builds one row, and a unit allocates only
// what it keeps. A unit that takes a free slot costs the row and the
// text of the slot's two-column key it is stored under; one that gives a
// held slot to another meeting costs the changes, the key text the unit
// keeps and the row the update leaves. The key a unit only looks for is
// built on the stack, and the log names an updated row by the row it
// replaces. They cost 4 and 6 while each unit made its own Tx, probe keys
// and key row.
func TestSetSlotAllocs(t *testing.T) {
	clk := clock.NewFake(time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC))
	db := store.NewDB()
	lm, err := links.NewManager("andy", db, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewDetached("andy", db, lm, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	days := make([]string, runs+1)
	for i := range days {
		days[i] = fmt.Sprintf("2026-%02d-%02d", 1+i/28, 1+i%28)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name, meeting string
		most          float64
	}{
		{"insert", "M-0001f00dcafe0001", 2}, // map rows: 7
		{"update", "M-0001f00dcafe0002", 3}, // map rows: 10
	} {
		if RaceEnabled {
			tc.most += 2
		}
		t.Run(tc.name, func(t *testing.T) {
			next := 0
			got := testing.AllocsPerRun(runs, func() {
				s := Slot{Day: days[next], Hour: 14}
				next++
				if err := db.Unit(ctx, func(u *store.Tx) error { return c.setSlot(u, s, tc.meeting, 2) }); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.most {
				t.Errorf("a unit that sets a slot (%s) costs %.0f allocs, want at most %.0f", tc.name, got, tc.most)
			}
		})
	}
}
