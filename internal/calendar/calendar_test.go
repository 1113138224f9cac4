package calendar_test

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/notify"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	day1 = "2003-04-22"
	day2 = "2003-04-23"
)

type world struct {
	t     *testing.T
	net   *sim.Net
	clk   *clock.Fake
	mail  *mailbox
	cals  map[string]*calendar.Calendar
	nodes map[string]*core.Node
	// routeTTL, when set before addUser, gives the user's engine a route cache.
	routeTTL time.Duration
	// wrapNet, when set before addUser, stands between the user's node and net.
	wrapNet func(transport.Network) transport.Network
	// lost holds, by sender, the users a sender's links.Mark is lost to
	// (loseMarks).
	lost sync.Map
}

func newWorld(t *testing.T, users ...string) *world {
	t.Helper()
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	net := sim.New(sim.Config{Clock: clk})
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	w := &world{
		t: t, net: net, clk: clk, mail: &mailbox{boxes: map[string][]notify.Message{}},
		cals:  map[string]*calendar.Calendar{},
		nodes: map[string]*core.Node{},
	}
	for _, u := range users {
		w.addUser(u, 0)
	}
	return w
}

// linkRows returns every link row user's device holds, in id order.
func (w *world) linkRows(user string) []*links.Link {
	w.t.Helper()
	tab, err := w.nodes[user].DB.Table(links.LinkTable)
	if err != nil {
		w.t.Fatal(err)
	}
	var ids []string
	tab.ViewAll(func(r store.Row) { ids = append(ids, r.Str("id")) })
	slices.Sort(ids)
	var out []*links.Link
	for _, id := range ids {
		if l, ok := w.nodes[user].Links.GetLink(id); ok {
			out = append(out, l)
		}
	}
	return out
}

// mailbox is the world's notifier: every message, by recipient.
type mailbox struct {
	mu    sync.Mutex
	boxes map[string][]notify.Message
}

func (mb *mailbox) Notify(_ context.Context, m notify.Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, to := range m.To {
		mb.boxes[to] = append(mb.boxes[to], m)
	}
	return nil
}

func (mb *mailbox) inbox(user string) []notify.Message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return append([]notify.Message(nil), mb.boxes[user]...)
}

func (w *world) addUser(user string, priority int) *calendar.Calendar {
	w.t.Helper()
	c, err := w.startUser(core.Config{User: user, Priority: priority})
	if err != nil {
		w.t.Fatal(err)
	}
	return c
}

// network is the network the world's next node, user's, binds on: net,
// behind wrapNet when that is set, behind the marks loseMarks loses.
func (w *world) network(user string) transport.Network {
	var n transport.Network = w.net
	if w.wrapNet != nil {
		n = w.wrapNet(n)
	}
	return markLoser{Network: n, w: w, from: user}
}

// loseMarks makes every links.Mark from's node sends to one of to fail
// as unavailable before it leaves; with no to, from's marks go out again.
func (w *world) loseMarks(from string, to ...string) { w.lost.Store(from, to) }

// markLoser is a world node's network: it loses the node's links.Mark
// requests as loseMarks says.
type markLoser struct {
	transport.Network
	w    *world
	from string
}

func (n markLoser) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if to, ok := n.w.lost.Load(n.from); ok && req.Method == "Mark" &&
		slices.ContainsFunc(to.([]string), func(u string) bool { return req.Service == links.ServiceFor(u) }) {
		return nil, &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: mark lost"}
	}
	return n.Network.Call(ctx, addr, req)
}

// startUser boots a calendar node from cfg on the world's network,
// directory and clock (and its routeTTL and wrapNet), and makes it the
// world's node for cfg.User.
func (w *world) startUser(cfg core.Config) (*calendar.Calendar, error) {
	ctx := context.Background()
	cfg.Net, cfg.DirAddr, cfg.Clock = w.network(cfg.User), "dir", w.clk
	cfg.RouteCacheTTL = w.routeTTL
	n, err := core.Start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	c, err := calendar.New(ctx, n, calendar.WithNotifier(w.mail))
	if err != nil {
		return nil, err
	}
	w.cals[cfg.User] = c
	w.nodes[cfg.User] = n
	return c, nil
}

func (w *world) slotMeeting(user string, s calendar.Slot) string {
	return w.cals[user].Slot(s).Meeting
}

// flyLegs passes simulated time one one-way trip per entry of legs, each
// once exactly that many messages are in flight on top of the idle
// waiters: how long an exchange takes on a network of fixed latency.
func (w *world) flyLegs(idle int, oneWay time.Duration, legs ...int) {
	w.t.Helper()
	for leg, inFlight := range legs {
		deadline := time.Now().Add(5 * time.Second)
		for w.clk.PendingWaiters() != idle+inFlight {
			if time.Now().After(deadline) {
				w.t.Fatalf("leg %d: %d messages in flight at once, want %d", leg, w.clk.PendingWaiters()-idle, inFlight)
			}
			time.Sleep(time.Millisecond)
		}
		w.clk.Advance(oneWay)
	}
}

// onRequests is a wrapNet that puts wrap in front of every request a
// node serves: the seam at which a test counts a node's inbound calls,
// holds them, or loses their answers.
func onRequests(wrap func(next transport.HandlerFunc) transport.HandlerFunc) func(transport.Network) transport.Network {
	return func(n transport.Network) transport.Network { return inboundNet{Network: n, wrap: wrap} }
}

// inboundNet is a network whose Listen puts wrap in front of the
// requests of every handler bound on it.
type inboundNet struct {
	transport.Network
	wrap func(next transport.HandlerFunc) transport.HandlerFunc
}

func (n inboundNet) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	return n.Network.Listen(addr, inboundHandler{Handler: h, serve: n.wrap(h.HandleRequest)})
}

// inboundHandler is a handler whose requests go through serve.
type inboundHandler struct {
	transport.Handler
	serve transport.HandlerFunc
}

func (h inboundHandler) HandleRequest(ctx context.Context, req *transport.Request) transport.Response {
	return h.serve(ctx, req)
}

// respErr is the error a handler answered with: nil when it succeeded.
func respErr(resp transport.Response) error {
	if resp.OK {
		return nil
	}
	return &wire.RemoteError{Code: resp.Code, Reason: resp.Reason, Msg: resp.Error}
}

func ctxBg() context.Context { return context.Background() }

func slot(day string, hour int) calendar.Slot { return calendar.Slot{Day: day, Hour: hour} }

// --- basic slot management -----------------------------------------------------

func TestFreeSlotsDefaults(t *testing.T) {
	w := newWorld(t, "phil")
	c := w.cals["phil"]
	free := c.FreeSlots(day1, day1, nil)
	if len(free) != len(calendar.DefaultHours) {
		t.Fatalf("free = %d", len(free))
	}
	if err := c.MarkBusy(slot(day1, 9), "dentist", 0); err != nil {
		t.Fatal(err)
	}
	free = c.FreeSlots(day1, day1, nil)
	if len(free) != len(calendar.DefaultHours)-1 {
		t.Fatalf("free after busy = %d", len(free))
	}
	if err := c.MarkBusy(slot(day1, 9), "double", 0); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("double busy: %v", err)
	}
}

// TestFreeSlotsAllocs: a scan of the benchmark's 5 × 9 window is 45
// point reads that allocate nothing, keyed by days formatted on the
// stack; what is left is the bitset, the slot list and the five day
// strings the list holds. The probe-per-slot scan cost two per slot.
func TestFreeSlotsAllocs(t *testing.T) {
	w := newWorld(t, "phil")
	c := w.cals["phil"]
	days := calendar.DaysBetween("2003-04-21", "2003-04-25")
	for i := 0; i < 13; i++ {
		if err := c.MarkBusy(slot(days[i%5], 9+i%9), "appt", 0); err != nil {
			t.Fatal(err)
		}
	}
	var free []calendar.Slot
	allocs := testing.AllocsPerRun(100, func() { free = c.FreeSlots(days[0], days[4], nil) })
	if len(free) != 5*9-13 {
		t.Fatalf("free = %d slots, want %d", len(free), 5*9-13)
	}
	if allocs > 7 {
		t.Fatalf("FreeSlots over 5 x 9 slots: %.0f allocs, want at most 7", allocs)
	}
}

// TestHoursAreNormalised: an hour set may come unsorted and repeated; it
// is read, not sorted in place, and answers each hour once. An hour that
// is none fails the find and is bad-args at the handler, where the set
// travels as one int.
func TestHoursAreNormalised(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b")
	hours := []int{17, 9, 9, 12}
	want := []calendar.Slot{slot(day1, 9), slot(day1, 12), slot(day1, 17)}
	got, err := w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{FromDay: day1, ToDay: day1, Hours: hours, Must: []string{"b"}})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("find at %v = %v, %v; want %v", hours, got, err, want)
	}
	if got := w.cals["a"].FreeSlots(day1, day1, hours); !slices.Equal(got, want) {
		t.Fatalf("FreeSlots at %v = %v, want %v", hours, got, want)
	}
	if !slices.Equal(hours, []int{17, 9, 9, 12}) {
		t.Fatalf("the caller's hours were rearranged: %v", hours)
	}
	census.take(t, "find", map[string]int{"cal.GetFreeSlots": 1})

	_, err = w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{FromDay: day1, ToDay: day1, Hours: []int{9, 9, 99}, Must: []string{"b"}})
	if wire.CodeOf(err) != wire.CodeBadArgs {
		t.Fatalf("find at hour 99: %v, want bad-args", err)
	}
	if got := w.cals["a"].FreeSlots(day1, day1, []int{9, 9, 99}); got != nil {
		t.Fatalf("FreeSlots at hour 99 = %v", got)
	}
	census.take(t, "find at hour 99", map[string]int{})
	for _, bad := range []wire.Arg{wire.Int("hours", 1<<24|1<<9), wire.Int("hours", 0), wire.Int("hours", -1), wire.Raw("hours", []byte("[9,9,99]")), wire.Str("hours", "9")} {
		err := invoke(w, "a", "b", "GetFreeSlots", wire.Args{wire.Str("from", day1), wire.Str("to", day1), bad}, nil)
		if wire.CodeOf(err) != wire.CodeBadArgs {
			t.Errorf("GetFreeSlots with hours %v: %v, want bad-args", bad, err)
		}
	}
}

// TestWindowIsBounded: a window must be two days in order spanning at
// most MaxWindowSlots slots. Anything else is bad-args — at the handler,
// and at the initiator before it sends anything — not an empty answer
// that reads as "no common free slot".
func TestWindowIsBounded(t *testing.T) {
	w, census := newCensusWorld(t, "a", "b")
	for name, win := range map[string][2]string{
		"oversize":  {"0001-01-01", "9999-12-31"},
		"one over":  {"2003-01-01", "2004-04-01"}, // 457 days x 9 hours
		"inverted":  {day2, day1},
		"malformed": {"garbage", day1},
		"empty":     {"", ""},
	} {
		req := calendar.Request{Title: name, FromDay: win[0], ToDay: win[1], Must: []string{"b"}}
		if _, err := w.cals["a"].FindCommonSlots(ctxBg(), req); wire.CodeOf(err) != wire.CodeBadArgs {
			t.Errorf("%s window: find: %v, want bad-args", name, err)
		}
		if _, err := w.cals["a"].SetupMeeting(ctxBg(), req); wire.CodeOf(err) != wire.CodeBadArgs {
			t.Errorf("%s window: setup: %v, want bad-args", name, err)
		}
		if _, err := calendar.NewCommittee(w.cals["a"], "b").FreeBusyMatrix(ctxBg(), win[0], win[1], nil); wire.CodeOf(err) != wire.CodeBadArgs {
			t.Errorf("%s window: free/busy matrix: %v, want bad-args", name, err)
		}
		census.take(t, name, map[string]int{})
		err := invoke(w, "a", "b", "GetFreeSlots", wire.Args{wire.Str("from", win[0]), wire.Str("to", win[1])}, nil)
		if wire.CodeOf(err) != wire.CodeBadArgs {
			t.Errorf("%s window: GetFreeSlots: %v, want bad-args", name, err)
		}
		census.take(t, name, map[string]int{"cal.GetFreeSlots": 1})
	}
	// The largest window there is: 256 days at 16 hours.
	hours := []int{6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	got, err := w.cals["a"].FindCommonSlots(ctxBg(), calendar.Request{FromDay: "2003-01-01", ToDay: "2003-09-13", Hours: hours, Must: []string{"b"}})
	if err != nil || len(got) != calendar.MaxWindowSlots {
		t.Fatalf("find over the largest window: %d slots, %v", len(got), err)
	}
}

func TestReleaseSlotRules(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	c := w.cals["phil"]
	// Releasing a free slot is a no-op.
	if err := c.ReleaseSlot(ctxBg(), slot(day1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkBusy(slot(day1, 9), "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSlot(ctxBg(), slot(day1, 9)); err != nil {
		t.Fatal(err)
	}
	if got := c.Slot(slot(day1, 9)).Meeting; got != "" {
		t.Fatalf("slot = %q", got)
	}
	// A coordinated meeting slot refuses ReleaseSlot.
	m, err := c.SetupMeeting(ctxBg(), calendar.Request{
		Title: "standup", FromDay: day1, ToDay: day1, Must: []string{"andy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSlot(ctxBg(), m.Slot); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("release of meeting slot: %v", err)
	}
}

// --- meeting setup ---------------------------------------------------------------

func TestSetupMeetingAllAvailableConfirms(t *testing.T) {
	w := newWorld(t, "a", "b", "c", "d")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", FromDay: day1, ToDay: day2, Must: []string{"b", "c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s (missing %v)", m.Status, m.Missing)
	}
	if len(m.Reserved) != 4 || len(m.Missing) != 0 {
		t.Fatalf("reserved=%v missing=%v", m.Reserved, m.Missing)
	}
	for _, u := range []string{"a", "b", "c", "d"} {
		if got := w.slotMeeting(u, m.Slot); got != m.ID {
			t.Fatalf("%s slot holds %q", u, got)
		}
		// Everyone has a link row for the meeting.
		if _, ok := w.cals[u].Links().GetLink(m.LinkID); !ok {
			t.Fatalf("%s has no link row", u)
		}
		// Everyone got the meeting record.
		if mm, ok := w.cals[u].Meeting(m.ID); !ok || mm.Status != calendar.StatusConfirmed {
			t.Fatalf("%s meeting record: %+v ok=%v", u, mm, ok)
		}
		// Everyone got an e-mail.
		if len(w.mail.inbox(u)) == 0 {
			t.Fatalf("%s got no notification", u)
		}
	}
}

func TestSetupMeetingSkipsBusySlots(t *testing.T) {
	w := newWorld(t, "a", "b")
	// b is busy the whole first day.
	for _, h := range calendar.DefaultHours {
		if err := w.cals["b"].MarkBusy(slot(day1, h), "x", 0); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "sync", FromDay: day1, ToDay: day2, Must: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slot.Day != day2 {
		t.Fatalf("chose %v despite b busy on %s", m.Slot, day1)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s", m.Status)
	}
}

func TestSetupMeetingNoCommonSlot(t *testing.T) {
	w := newWorld(t, "a", "b")
	for _, h := range calendar.DefaultHours {
		if err := w.cals["b"].MarkBusy(slot(day1, h), "x", 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "sync", FromDay: day1, ToDay: day1, Must: []string{"b"},
	})
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
}

// TestE2TentativeThenAutoConfirm reproduces the §5 scenario: C is
// unavailable, the meeting is created tentative with a tentative back
// link at C; when C frees the slot, the meeting auto-confirms.
func TestE2TentativeThenAutoConfirm(t *testing.T) {
	w := newWorld(t, "a", "b", "c", "d")
	// C has a personal appointment at every slot of day1.
	for _, h := range calendar.DefaultHours {
		if err := w.cals["c"].MarkBusy(slot(day1, h), "class", 0); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the slot so the search cannot route around C.
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "urgent", Day: day1, Hour: 14, PinSlot: true,
		Must: []string{"b", "c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusTentative {
		t.Fatalf("status = %s", m.Status)
	}
	if len(m.Missing) != 1 || m.Missing[0] != "c" {
		t.Fatalf("missing = %v", m.Missing)
	}
	// A, B, D hold the slot; C holds the class.
	for _, u := range []string{"a", "b", "d"} {
		if got := w.slotMeeting(u, m.Slot); got != m.ID {
			t.Fatalf("%s slot = %q", u, got)
		}
	}
	if got := w.slotMeeting("c", m.Slot); got != "personal:class" {
		t.Fatalf("c slot = %q", got)
	}
	// C has a tentative back link queued at the slot.
	cl, ok := w.cals["c"].Links().GetLink(m.LinkID)
	if !ok || cl.Subtype != links.Tentative {
		t.Fatalf("c link: %+v ok=%v", cl, ok)
	}

	// C's class is cancelled: the slot frees, the tentative link
	// fires SlotAvailable at A, and the meeting confirms.
	if err := w.cals["c"].ReleaseSlot(ctxBg(), m.Slot); err != nil {
		t.Fatal(err)
	}
	got, ok := w.cals["a"].Meeting(m.ID)
	if !ok || got.Status != calendar.StatusConfirmed {
		t.Fatalf("meeting after release: %+v", got)
	}
	if w.slotMeeting("c", m.Slot) != m.ID {
		t.Fatalf("c slot = %q", w.slotMeeting("c", m.Slot))
	}
}

// TestE1CancelPromotesTentativeMeeting reproduces §4.4: cancelling a
// meeting triggers the cascade that converts the highest-priority
// tentative meeting on the freed slots to confirmed.
func TestE1CancelPromotesTentativeMeeting(t *testing.T) {
	w := newWorld(t, "a", "b", "c", "x")
	// Meeting M1 (a,b,c) confirmed at a pinned slot.
	m1, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m1", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Status != calendar.StatusConfirmed {
		t.Fatalf("m1 = %s", m1.Status)
	}
	// Meeting M2 (x,b,c) wants the same slot -> tentative, waiting.
	m2, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m2", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Status != calendar.StatusTentative {
		t.Fatalf("m2 = %s", m2.Status)
	}
	// b and c carry tentative links for m2 waiting on m1's link.
	for _, u := range []string{"b", "c"} {
		l, ok := w.cals[u].Links().GetLink(m2.LinkID)
		if !ok || l.Subtype != links.Tentative || l.WaitingOn != m1.LinkID {
			t.Fatalf("%s m2 link: %+v ok=%v", u, l, ok)
		}
	}

	// Cancel M1: slots free, m2's waiting links promote, m2 confirms.
	if err := w.cals["a"].CancelMeeting(ctxBg(), m1.ID); err != nil {
		t.Fatal(err)
	}
	gotM1, _ := w.cals["a"].Meeting(m1.ID)
	if gotM1.Status != calendar.StatusCancelled {
		t.Fatalf("m1 = %s", gotM1.Status)
	}
	gotM2, _ := w.cals["x"].Meeting(m2.ID)
	if gotM2.Status != calendar.StatusConfirmed {
		t.Fatalf("m2 after cancel = %s (missing %v)", gotM2.Status, gotM2.Missing)
	}
	for _, u := range []string{"b", "c", "x"} {
		if got := w.slotMeeting(u, slot(day1, 10)); got != m2.ID {
			t.Fatalf("%s slot = %q", u, got)
		}
	}
	// a's slot is free again.
	if got := w.slotMeeting("a", slot(day1, 10)); got != "" {
		t.Fatalf("a slot = %q", got)
	}
}

// TestCancelPicksHighestPriorityWaiter: two tentative meetings wait on
// the same slot; the higher-priority one wins when it frees (§4.2 op 3).
func TestCancelPicksHighestPriorityWaiter(t *testing.T) {
	w := newWorld(t, "a", "b", "x", "y")
	m1, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m1", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mLow, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := w.cals["y"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].CancelMeeting(ctxBg(), m1.ID); err != nil {
		t.Fatal(err)
	}
	gotHigh, _ := w.cals["y"].Meeting(mHigh.ID)
	if gotHigh.Status != calendar.StatusConfirmed {
		t.Fatalf("high-priority waiter = %s", gotHigh.Status)
	}
	gotLow, _ := w.cals["x"].Meeting(mLow.ID)
	if gotLow.Status != calendar.StatusTentative {
		t.Fatalf("low-priority waiter = %s", gotLow.Status)
	}
	if got := w.slotMeeting("b", slot(day1, 10)); got != mHigh.ID {
		t.Fatalf("b slot = %q", got)
	}
}

// TestE5Quorum reproduces the §5 quorum scenario: must-attendees plus
// "50% of Biology" and "at least 2 from Physics".
func TestE5Quorum(t *testing.T) {
	users := []string{"a", "b", "c", "bio1", "bio2", "bio3", "bio4", "phy1", "phy2", "phy3"}
	w := newWorld(t, users...)
	req := calendar.Request{
		Title: "faculty", Day: day1, Hour: 11, PinSlot: true,
		Must: []string{"b", "c"},
		OrGroups: []calendar.OrGroup{
			{Name: "biology", Members: []string{"bio1", "bio2", "bio3", "bio4"}, K: 2},
			{Name: "physics", Members: []string{"phy1", "phy2", "phy3"}, K: 2},
		},
	}
	m, err := w.cals["a"].SetupMeeting(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
	}
	bio := 0
	phy := 0
	for _, u := range m.Reserved {
		if strings.HasPrefix(u, "bio") {
			bio++
		} else if strings.HasPrefix(u, "phy") {
			phy++
		}
	}
	if bio < 2 || phy < 2 {
		t.Fatalf("quorum not met: bio=%d phy=%d", bio, phy)
	}

	// A biology quorum failure: only 1 of 4 biologists free.
	w2 := newWorld(t, users...)
	for _, u := range []string{"bio1", "bio2", "bio3"} {
		if err := w2.cals[u].MarkBusy(slot(day1, 11), "lab", 0); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := w2.cals["a"].SetupMeeting(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Status != calendar.StatusTentative {
		t.Fatalf("status = %s", m2.Status)
	}
	// The atomic k-of-n abort means no biologist holds the slot.
	for _, u := range []string{"bio1", "bio2", "bio3", "bio4"} {
		if got := w2.slotMeeting(u, slot(day1, 11)); got == m2.ID {
			t.Fatalf("%s reserved despite quorum failure", u)
		}
	}
	// Physics quorum unaffected.
	phy = 0
	for _, u := range m2.Reserved {
		if strings.HasPrefix(u, "phy") {
			phy++
		}
	}
	if phy < 2 {
		t.Fatalf("physics quorum = %d", phy)
	}

	// One biologist frees up -> still short (need 2, bio4 already
	// free but was never reserved because the group aborted).
	if err := w2.cals["bio1"].ReleaseSlot(ctxBg(), slot(day1, 11)); err != nil {
		t.Fatal(err)
	}
	got, _ := w2.cals["a"].Meeting(m2.ID)
	if got.Status != calendar.StatusConfirmed {
		// bio1 freeing re-runs TryConfirm which can now reserve
		// bio1 AND bio4 (both free) -> confirmed.
		t.Fatalf("after bio1 release: %s (reserved %v)", got.Status, got.Reserved)
	}
}

// TestE3DropOutAndVeto reproduces the §5 "D wants to change" scenario:
// a must-attendee cannot unilaterally change a confirmed meeting, but
// can drop out; dropping out makes the meeting tentative and frees the
// slot for waiting meetings.
func TestE3DropOutAndVeto(t *testing.T) {
	w := newWorld(t, "a", "b", "c", "d")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// D attempts a unilateral change: the back link vetoes.
	_, err = w.cals["d"].Links().TriggerEntity(ctxBg(), m.Slot.Entity(), "change", nil)
	if err == nil {
		t.Fatal("unilateral change of a confirmed meeting was not vetoed")
	}

	// D drops out properly.
	if err := w.cals["d"].DropOut(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusTentative {
		t.Fatalf("status after dropout = %s", got.Status)
	}
	if !containsStr(got.Missing, "d") || containsStr(got.Reserved, "d") {
		t.Fatalf("reserved=%v missing=%v", got.Reserved, got.Missing)
	}
	if w.slotMeeting("d", m.Slot) != "" {
		t.Fatalf("d slot = %q", w.slotMeeting("d", m.Slot))
	}
	// D frees up again (already free) -> a TryConfirm re-reserves.
	if _, err := w.cals["a"].TryConfirm(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	got, _ = w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusConfirmed {
		t.Fatalf("status after re-confirm = %s", got.Status)
	}
	// The initiator cannot drop out.
	if err := w.cals["a"].DropOut(ctxBg(), m.ID); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("initiator dropout: %v", err)
	}
}

// TestE3PromotedParticipantVeto: a participant busy at setup and
// confirmed later through its vote, its tentative back link promoted, is
// held to what a participant reserved at setup is: a must's change at
// the slot consults the initiator and is vetoed, a supervisor's link is a
// subscription and its change goes through.
func TestE3PromotedParticipantVeto(t *testing.T) {
	for _, tc := range []struct {
		name   string
		req    calendar.Request
		typ    links.Type
		vetoed bool
	}{
		{"must", calendar.Request{Must: []string{"b", "c"}}, links.Negotiation, true},
		{"supervisor", calendar.Request{Must: []string{"c"}, Supervisors: []string{"b"}}, links.Subscription, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, "a", "b", "c")
			if err := w.cals["b"].MarkBusy(slot(day1, 10), "dentist", 0); err != nil {
				t.Fatal(err)
			}
			req := tc.req
			req.Title, req.Day, req.Hour, req.PinSlot = "m", day1, 10, true
			m, err := w.cals["a"].SetupMeeting(ctxBg(), req)
			if err != nil || m.Status != calendar.StatusTentative {
				t.Fatalf("setup: %v, %+v", err, m)
			}
			if err := w.cals["b"].ReleaseSlot(ctxBg(), slot(day1, 10)); err != nil {
				t.Fatal(err)
			}
			if got, _ := w.cals["a"].Meeting(m.ID); got.Status != calendar.StatusConfirmed {
				t.Fatalf("after b's vote: %s, missing %v", got.Status, got.Missing)
			}
			bl, ok := w.cals["b"].Links().GetLink(m.LinkID)
			if !ok || bl.Subtype != links.Permanent || bl.Type != tc.typ || len(bl.Triggers) != 1 || bl.Triggers[0].Event != "change" {
				t.Fatalf("b's promoted back link: %+v", bl)
			}
			_, err = w.cals["b"].Links().TriggerEntity(ctxBg(), m.Slot.Entity(), "change", nil)
			if (err != nil) != tc.vetoed {
				t.Fatalf("b's change at the slot: %v, want vetoed %v", err, tc.vetoed)
			}
		})
	}
}

// TestE4SupervisorSubscriptionLink reproduces the §5 supervisor
// scenario: B is a supervisor with only a subscription back link — B's
// change is never vetoed, the meeting goes tentative and heals when it
// can.
func TestE4SupervisorSubscriptionLink(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true,
		Must: []string{"c"}, Supervisors: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
	}
	// B's back link is subscription type.
	bl, ok := w.cals["b"].Links().GetLink(m.LinkID)
	if !ok || bl.Type != links.Subscription {
		t.Fatalf("b link: %+v", bl)
	}
	// B changes his schedule at will: no veto, A is informed, and the
	// meeting immediately renegotiates. B stayed free at that hour so
	// the re-confirmation wins instantly.
	_, err = w.cals["b"].Links().TriggerEntity(ctxBg(), m.Slot.Entity(), "change", nil)
	if err != nil {
		t.Fatalf("supervisor change was vetoed: %v", err)
	}
	got, _ := w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusConfirmed {
		t.Fatalf("status after supervisor change = %s", got.Status)
	}
}

// TestBumping reproduces §6: a higher-priority meeting bumps a
// lower-priority one off its slot; the bumped meeting turns tentative
// and auto-reschedules when the slot frees again.
func TestBumping(t *testing.T) {
	w := newWorld(t, "a", "b", "x")
	mLow, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// x sets up a high-priority meeting with b on the same slot.
	mHigh, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
		Priority: 9, AllowBump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mHigh.Status != calendar.StatusConfirmed {
		t.Fatalf("high = %s (missing %v)", mHigh.Status, mHigh.Missing)
	}
	if got := w.slotMeeting("b", slot(day1, 10)); got != mHigh.ID {
		t.Fatalf("b slot = %q", got)
	}
	// The bumped meeting is tentative at its initiator.
	gotLow, _ := w.cals["a"].Meeting(mLow.ID)
	if gotLow.Status != calendar.StatusTentative {
		t.Fatalf("low = %s", gotLow.Status)
	}
	// When the high-priority meeting is cancelled, the bumped one
	// auto-reschedules (its tentative link waits on mHigh's link).
	if err := w.cals["x"].CancelMeeting(ctxBg(), mHigh.ID); err != nil {
		t.Fatal(err)
	}
	gotLow, _ = w.cals["a"].Meeting(mLow.ID)
	if gotLow.Status != calendar.StatusConfirmed {
		t.Fatalf("low after high cancel = %s (reserved %v missing %v)", gotLow.Status, gotLow.Reserved, gotLow.Missing)
	}
	if got := w.slotMeeting("b", slot(day1, 10)); got != mLow.ID {
		t.Fatalf("b slot after cancel = %q", got)
	}
}

// TestLowPriorityCannotBump: without the priority edge the reservation
// conflicts normally.
func TestLowPriorityCannotBump(t *testing.T) {
	w := newWorld(t, "a", "b", "x")
	mHigh, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	mLow, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
		Priority: 1, AllowBump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mLow.Status != calendar.StatusTentative {
		t.Fatalf("low = %s", mLow.Status)
	}
	if got := w.slotMeeting("b", slot(day1, 10)); got != mHigh.ID {
		t.Fatalf("b slot = %q", got)
	}
}

func TestChangeMeetingSlot(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Move to 14:00 — everyone free, should succeed.
	if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), m.ID, slot(day1, 14)); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c"} {
		if got := w.slotMeeting(u, slot(day1, 14)); got != m.ID {
			t.Fatalf("%s new slot = %q", u, got)
		}
		if got := w.slotMeeting(u, slot(day1, 10)); got != "" {
			t.Fatalf("%s old slot = %q", u, got)
		}
	}
	got, _ := w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusConfirmed || got.Slot.Hour != 14 {
		t.Fatalf("meeting = %+v", got)
	}

	// Move to a slot where c is busy: rejected, nothing changes.
	if err := w.cals["c"].MarkBusy(slot(day1, 16), "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), m.ID, slot(day1, 16)); err == nil {
		t.Fatal("change to busy slot accepted")
	}
	if got := w.slotMeeting("b", slot(day1, 14)); got != m.ID {
		t.Fatalf("b slot after failed change = %q", got)
	}
}

func TestCancelAuthorization(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// b (non-initiator) cannot cancel remotely.
	err = w.nodes["b"].Engine.Invoke(ctxBg(), calendar.ServiceFor("a"), "CancelMeeting",
		wire.Args{wire.Str("meeting", m.ID)}, nil)
	if wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("unauthorized cancel: %v", err)
	}
	// Delegation transfers the authority (§5's executive/staff).
	if err := w.cals["a"].Delegate(ctxBg(), m.ID, "b"); err != nil {
		t.Fatal(err)
	}
	err = w.nodes["b"].Engine.Invoke(ctxBg(), calendar.ServiceFor("a"), "CancelMeeting",
		wire.Args{wire.Str("meeting", m.ID)}, nil)
	if err != nil {
		t.Fatalf("delegated cancel failed: %v", err)
	}
	got, _ := w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusCancelled {
		t.Fatalf("status = %s", got.Status)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	w := newWorld(t, "a", "b")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
}

// TestCancelReachesLateJoiner: a participant who confirmed *after*
// setup (via a tentative link) must still be released by the cancel
// cascade — the forward link targets all participants, not just the
// ones reserved at setup time.
func TestCancelReachesLateJoiner(t *testing.T) {
	w := newWorld(t, "a", "b", "c")
	s := slot(day1, 14)
	if err := w.cals["c"].MarkBusy(s, "class", 0); err != nil {
		t.Fatal(err)
	}
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: s.Day, Hour: s.Hour, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusTentative {
		t.Fatalf("status = %s", m.Status)
	}
	// c joins late.
	if err := w.cals["c"].ReleaseSlot(ctxBg(), s); err != nil {
		t.Fatal(err)
	}
	got, _ := w.cals["a"].Meeting(m.ID)
	if got.Status != calendar.StatusConfirmed {
		t.Fatalf("status after join = %s", got.Status)
	}
	// Cancel must clear c's slot and link too.
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	if got := w.slotMeeting("c", s); got != "" {
		t.Fatalf("late joiner slot = %q after cancel", got)
	}
	if _, ok := w.cals["c"].Links().GetLink(m.LinkID); ok {
		t.Fatal("late joiner link survived cancel")
	}
}

func containsStr(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}
