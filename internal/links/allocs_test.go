package links_test

import (
	"testing"

	"repro/internal/links"
	"repro/internal/wire"
)

// TestNegotiateAllocs pins what an untraced negotiation costs the
// process: an Or over two remote targets, both of which mark and commit,
// with every Mark and Commit a round trip over the sim network, which
// sends a frame through its connection's name tables and decodes it as a
// socket's end does. Its steps
// build nothing when no span records them: 215 allocations while they
// were kept on the Result as well, 201 before commit units were
// recycled, 192 while the sim read each frame through a reader of its
// own and sorted the links on an entity with sort.Slice, 144 while each
// Mark's reply was a map written and read as JSON text and each
// Commit's ack JSON text the coordinator copied, 136 while a lock
// token was a concatenation of the prefix and a formatted counter, and
// 134 while the targets were copied unsorted and every fan-out's state
// was new.
func TestNegotiateAllocs(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	spec := links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("b", "s", "c", "s"), Constraint: links.Or,
	}
	ctx := ctxBg()
	want := 129.0
	if raceEnabled {
		want += 40
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := h.nodes["a"].Links.Negotiate(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("an untraced Or over two targets: %.0f allocs, want <= %.0f", got, want)
	}
}
