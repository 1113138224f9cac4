package links

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRowWriteAllocs: a row a participant's Commit writes beside its
// slot costs one allocation to build, so a unit of just that row costs
// the unit's Tx, the row and, for a back link stored by AddLink, the one
// string its targets and triggers columns share. The decided token
// recorded by recordDecided is the other row. Built as maps of boxed
// values the two units cost 18 and 6.
func TestRowWriteAllocs(t *testing.T) {
	clk := clock.NewFake(time.Date(2026, 8, 1, 9, 0, 0, 0, time.UTC))
	m, err := NewManager("andy", store.NewDB(), nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	slot := "slot:2026-08-07:14"
	ids := make([]string, runs+1)
	back := make([]*Link, runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("T-%016x", i)
		back[i] = &Link{
			ID: fmt.Sprintf("L-%016x", i), Type: Negotiation, Subtype: Permanent, Constraint: And, Priority: 2,
			Group: "M-0001f00dcafe0001", Created: clk.Now(),
			Owner: EntityRef{User: "andy", Entity: slot}, Targets: []EntityRef{{User: "phil", Entity: slot}},
			Triggers: []Trigger{{Event: "change", Service: "cal.%s", Method: "ParticipantChange",
				Args: wire.Args{wire.Str("meeting", "M-0001f00dcafe0001"), wire.Str("user", "andy")}}},
		}
	}
	var next int
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		most float64
		step func(u *store.Tx, i int) error
	}{
		{"AddLink", 3, func(u *store.Tx, i int) error { return m.AddLink(u, back[i]) }},
		{"recordDecided", 2, func(u *store.Tx, i int) error { return m.recordDecided(u, ids[i], "N-1", true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next = 0
			got := testing.AllocsPerRun(runs, func() {
				i := next
				next++
				if err := m.db.Unit(ctx, func(u *store.Tx) error { return tc.step(u, i) }); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.most {
				t.Errorf("a unit of one %s costs %.0f allocs, want at most %.0f", tc.name, got, tc.most)
			}
		})
	}
}
