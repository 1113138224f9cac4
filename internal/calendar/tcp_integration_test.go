package calendar_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTCPEndToEnd runs the full stack over real TCP sockets — the
// deployment path of the cmd/ binaries — and drives a meeting
// lifecycle through it: transport-agnosticism is a design decision
// (DESIGN.md §5.3) and this is its proof.
func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP()
	defer net.Close()
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dirLn, err := net.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer dirLn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cals := map[string]*calendar.Calendar{}
	for _, user := range []string{"phil", "andy", "suzy"} {
		node, err := core.Start(ctx, core.Config{
			User: user, Net: net, DirAddr: dirLn.Addr(),
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close(context.Background())
		c, err := calendar.New(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		cals[user] = c
	}

	if err := cals["andy"].MarkBusy(calendar.Slot{Day: "2003-04-22", Hour: 9}, "x", 0); err != nil {
		t.Fatal(err)
	}
	m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
		Title: "tcp", FromDay: "2003-04-22", ToDay: "2003-04-22",
		Must: []string{"andy", "suzy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
	}
	if m.Slot.Hour == 9 {
		t.Fatal("busy slot chosen over TCP")
	}
	for _, c := range cals {
		if got := c.Slot(m.Slot).Meeting; got != m.ID {
			t.Fatalf("%s slot = %q", c.User(), got)
		}
	}
	if err := cals["phil"].CancelMeeting(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	for _, c := range cals {
		if got := c.Slot(m.Slot).Meeting; got != "" {
			t.Fatalf("%s slot after cancel = %q", c.User(), got)
		}
	}
}

// newTCPWorld boots a directory and one node per user over real sockets,
// each on its own default-constructed transport as sydnode and sydload
// build it, route cache on, all counting into one WireStats; wrap, when
// set, stands in front of every node's requests. Everything closes with
// the test.
func newTCPWorld(t *testing.T, wrap func(transport.HandlerFunc) transport.HandlerFunc, users ...string) (map[string]*calendar.Calendar, *metrics.WireStats) {
	t.Helper()
	stats := &metrics.WireStats{}
	dirNet := transport.NewTCP(transport.WithWireStats(stats))
	t.Cleanup(func() { dirNet.Close() })
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dirLn, err := dirNet.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dirLn.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cals := map[string]*calendar.Calendar{}
	for _, user := range users {
		tcp := transport.NewTCP(transport.WithWireStats(stats))
		t.Cleanup(func() { tcp.Close() })
		var net transport.Network = tcp
		if wrap != nil {
			net = inboundNet{Network: tcp, wrap: wrap}
		}
		node, err := core.Start(ctx, core.Config{
			User: user, Net: net, DirAddr: dirLn.Addr(),
			ListenAddr: "127.0.0.1:0", RouteCacheTTL: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close(context.Background()) })
		if cals[user], err = calendar.New(ctx, node); err != nil {
			t.Fatal(err)
		}
	}
	return cals, stats
}

// TestTCPDefaultWireCost holds the deployment default to its measured
// cost: three nodes, each on its own default-constructed transport as
// sydnode and sydload build it, all counting into one WireStats. Once
// each connection to a peer has carried a call, a 3-party schedule +
// cancel is one Mark, one Commit and one DeleteLink per participant —
// 12 frames — in format v4: 888 B, the names in them being references
// into each connection's name table, each Commit's meeting record typed
// arguments, each length prefix a byte or two, each reply its typed
// result and each id its tag, the 13-character prefix and the counter
// in base 36 after its length digit. The counter is the one every
// ordered id of the process shares, so the figure is that of 1-digit
// counters, as a run of this test alone has them, and each of the 18
// ids the op sends is a byte longer per further digit (906, 924 and
// 938 B with 2, 3 and 4). With 31-byte link and negotiation ids and
// 27-byte meeting ids, counters zero-padded to 12 digits, it was 1060 B;
// with 4-byte prefixes and results as JSON text too, 1148-1152 B (the
// ids' varints vary); while the record rode as its JSON text, 1354 B,
// about 100 B more a Commit; spelling every name out, with the request
// id and hop count each request once carried, 1958 B; JSON frames cost
// 3270 B.
func TestTCPDefaultWireCost(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	cals, stats := newTCPWorld(t, nil, "phil", "andy", "suzy")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	meet := func(hour int) string {
		t.Helper()
		m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
			Title: "cost", Day: "2003-04-22", Hour: hour, PinSlot: true,
			Must: []string{"andy", "suzy"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != calendar.StatusConfirmed {
			t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
		}
		if err := cals["phil"].CancelMeeting(ctx, m.ID); err != nil {
			t.Fatal(err)
		}
		return m.ID
	}
	// A meeting is three calls to each participant, over one connection
	// to each: one meeting puts each call behind its connection once —
	// the dial, the route lookup, and the names the call sends, which
	// cross a connection once.
	meet(9)
	before := stats.Snapshot()
	digits := counterDigits(meet(10))
	after := stats.Snapshot()
	frames, bytes := after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent
	if limit := 908 + 18*(digits-1); frames != 12 || bytes > limit {
		t.Fatalf("schedule + cancel on warm default transports: %d frames, %d B; want 12 frames, <= %d B", frames, bytes, limit)
	}
	t.Logf("schedule + cancel: %d frames, %d B (ids' counters %d digits)", frames, bytes, digits)
}

// TestTCPTentativeWireCost holds the tentative path to its measured cost
// on the same deployment: a must that cannot give its slot is sent its
// refused Mark and one record push, on which it queues its own link, so a
// 3-party schedule with one busy must is 2 Marks, 1 Commit and 1
// MeetingUpdate — 8 frames, 761 B with 2-digit id counters on
// connections whose name tables are warm, the Commit and the push each
// carrying the record as typed arguments, and a byte more for each of
// its 12 ids per further counter digit (as in TestTCPDefaultWireCost).
// It was 869 B with padded ids, 919 B with 4-byte length prefixes and
// results as JSON text too, and 1145 B with the record as JSON text as
// well, where asking the busy device for its links and sending it one to
// add made it 12 frames and 2500 B. When the busy must's slot frees, its
// vote, the Commit and the record pushed to the third party are 6 frames
// and 571 B, 11 B more per further digit (669 B, 700 B and 918 B, as
// before); the Mark the initiator used to send the device that had just
// told it made them 8.
func TestTCPTentativeWireCost(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	cals, stats := newTCPWorld(t, nil, "phil", "andy", "suzy")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	schedule := func(hour int) *calendar.Meeting {
		t.Helper()
		if err := cals["andy"].MarkBusy(slot("2003-04-22", hour), "dentist", 0); err != nil {
			t.Fatal(err)
		}
		m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
			Title: "cost", Day: "2003-04-22", Hour: hour, PinSlot: true,
			Must: []string{"andy", "suzy"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if l, ok := cals["andy"].Links().GetLink(m.LinkID); m.Status != calendar.StatusTentative || !ok || l.Subtype != links.Tentative {
			t.Fatalf("status = %s, andy's link = %+v; want a tentative meeting and link", m.Status, l)
		}
		return m
	}
	confirm := func(m *calendar.Meeting) {
		t.Helper()
		if err := cals["andy"].ReleaseSlot(ctx, m.Slot); err != nil {
			t.Fatal(err)
		}
		if got, _ := cals["phil"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
			t.Fatalf("status after andy's release = %s", got.Status)
		}
	}
	// As in TestTCPDefaultWireCost: one meeting warms each connection.
	m := schedule(9)
	confirm(m)
	if err := cals["phil"].CancelMeeting(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	before := stats.Snapshot()
	m = schedule(10)
	after := stats.Snapshot()
	frames, bytes := after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent
	digits := counterDigits(m.ID)
	if limit := 780 + 12*(digits-2); frames != 8 || bytes > limit {
		t.Fatalf("tentative schedule on warm default transports: %d frames, %d B; want 8 frames, <= %d B", frames, bytes, limit)
	}
	t.Logf("tentative schedule: %d frames, %d B (ids' counters %d digits)", frames, bytes, digits)

	before = after
	confirm(m)
	after = stats.Snapshot()
	frames, bytes = after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent
	if limit := 590 + 11*(digits-2); frames != 6 || bytes > limit {
		t.Fatalf("confirm on warm default transports: %d frames, %d B; want 6 frames, <= %d B", frames, bytes, limit)
	}
	t.Logf("confirm: %d frames, %d B", frames, bytes)
}

// TestSimFramesEqualTCP: the sim network sends what a socket sends. A
// warm two-party schedule + cancel and a warm three-participant find,
// their calls carrying no deadline, cost the same frames and the same
// bytes over the sim as over loopback TCP: both number each request of a
// connection, both send every name through the connection's name tables,
// so a figure that differs means the sim ran another path. Ids the two
// worlds mint come from one process-wide counter, and a counter that
// gains a digit between the two runs of an op makes them differ by that
// digit; a counter gains one at most once in a few ops, so of three
// tries, one must match exactly.
func TestSimFramesEqualTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	users := []string{"a", "b", "c", "d"}
	w := newWorld(t)
	w.routeTTL = time.Hour
	for _, u := range users {
		w.addUser(u, 0)
	}
	tcp, stats := newTCPWorld(t, nil, users...)

	type cost struct{ frames, bytes int64 }
	simCost := func(op func(map[string]*calendar.Calendar)) cost {
		before := w.net.Stats()
		op(w.cals)
		after := w.net.Stats()
		return cost{after.Requests + after.Responses - before.Requests - before.Responses, after.Bytes - before.Bytes}
	}
	tcpCost := func(op func(map[string]*calendar.Calendar)) cost {
		before := stats.Snapshot()
		op(tcp)
		after := stats.Snapshot()
		return cost{after.FramesSent - before.FramesSent, after.BytesSent - before.BytesSent}
	}
	hour := 9
	meet := func(cals map[string]*calendar.Calendar) {
		m, err := cals["a"].SetupMeeting(ctxBg(), calendar.Request{
			Title: "same", Day: "2003-04-22", Hour: hour, PinSlot: true, Must: []string{"b"},
		})
		if err != nil || m.Status != calendar.StatusConfirmed {
			t.Fatalf("schedule: %+v, %v", m, err)
		}
		if err := cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
			t.Fatal(err)
		}
	}
	find := func(cals map[string]*calendar.Calendar) {
		got, err := cals["a"].FindCommonSlots(ctxBg(), calendar.Request{
			FromDay: "2003-04-21", ToDay: "2003-04-25", Must: []string{"b", "c", "d"},
		})
		if err != nil || len(got) != 5*9 {
			t.Fatalf("find: %d slots, %v", len(got), err)
		}
	}
	for name, op := range map[string]func(map[string]*calendar.Calendar){"schedule + cancel": meet, "find": find} {
		simCost(op) // the dials, the route lookups, the names
		tcpCost(op)
		var sim, sock cost
		for try := 0; try < 3; try++ {
			hour++
			if sim, sock = simCost(op), tcpCost(op); sim == sock {
				break
			}
		}
		if sim != sock || sim.frames == 0 {
			t.Fatalf("%s: the sim sent %d frames, %d B; TCP %d frames, %d B", name, sim.frames, sim.bytes, sock.frames, sock.bytes)
		}
		t.Logf("%s: %d frames, %d B on both", name, sim.frames, sim.bytes)
	}
}

// counterDigits is how many base-36 digits the counter of an ordered id
// (links.MintOrdered) has. Every ordered id minted near it has as many:
// they share one counter.
func counterDigits(id string) int64 { return int64(len(id) - len("M-0000000000000-0")) }

// TestTCPAuthenticatedService exercises the §5.4 auth path over real
// sockets.
func TestTCPAuthenticatedService(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP()
	defer net.Close()
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dirLn, err := net.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer dirLn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	an := auth.NewAuthenticator("tcp-deploy-key")
	an.Table.Add("andy", "pw")
	node, err := core.Start(ctx, core.Config{
		User: "phil", Net: net, DirAddr: dirLn.Addr(),
		ListenAddr: "127.0.0.1:0", Auth: an,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close(context.Background())
	c, err := calendar.New(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	// Lock down the calendar service.
	obj := c.ServiceObject()
	obj.RequireAuth = true
	if err := node.RegisterService(ctx, calendar.ServiceFor("phil"), obj); err != nil {
		t.Fatal(err)
	}

	caller, err := core.Start(ctx, core.Config{
		User: "andy", Net: net, DirAddr: dirLn.Addr(), ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close(context.Background())

	err = caller.Engine.Invoke(ctx, calendar.ServiceFor("phil"), "ListMeetings", nil, nil)
	if wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("unauthenticated call: %v", err)
	}
	if err := caller.Engine.SetCredential(an.Sealer, "andy", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := caller.Engine.Invoke(ctx, calendar.ServiceFor("phil"), "ListMeetings", nil, nil); err != nil {
		t.Fatalf("authenticated call: %v", err)
	}
}
