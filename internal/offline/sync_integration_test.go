package offline_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/metrics"
	"repro/internal/offline"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// world is a simulated deployment where every device runs with offline
// mode on and its calendar wired into the sync manager.
type world struct {
	net   *sim.Net
	clk   *clock.Fake
	dir   *directory.Client
	met   *metrics.Registry
	nodes map[string]*core.Node
	cals  map[string]*calendar.Calendar
	// queueCap is the op-queue capacity of the devices added next
	// (default 128).
	queueCap int
}

func newWorld(t *testing.T, users ...string) *world {
	t.Helper()
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	w := &world{
		net:   net,
		clk:   clk,
		dir:   directory.NewClient(net, "dir"),
		met:   metrics.NewRegistry(),
		nodes: map[string]*core.Node{},
		cals:  map[string]*calendar.Calendar{},
	}
	for _, u := range users {
		w.addUser(t, u)
	}
	return w
}

func (w *world) addUser(t *testing.T, user string) {
	t.Helper()
	ctx := context.Background()
	if w.queueCap == 0 {
		w.queueCap = 128
	}
	n, err := core.Start(ctx, core.Config{
		User: user, Net: w.net, DirAddr: "dir", Clock: w.clk,
		OfflineQueueCap: w.queueCap,
		Metrics:         w.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := calendar.New(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableSync(n.Offline)
	w.nodes[user] = n
	w.cals[user] = c
}

// cut severs user from every other device and the directory, both
// directions (sim partitions are keyed caller-user → destination-addr).
func (w *world) cut(user string) {
	w.net.Partition(user, "dir")
	for peer := range w.nodes {
		if peer == user {
			continue
		}
		w.net.Partition(user, "node-"+peer)
		w.net.Partition(peer, "node-"+user)
	}
}

func (w *world) heal(user string) {
	w.net.Heal(user, "dir")
	for peer := range w.nodes {
		if peer == user {
			continue
		}
		w.net.Heal(user, "node-"+peer)
		w.net.Heal(peer, "node-"+user)
	}
}

func pinned(title, day string, hour, prio int, must ...string) calendar.Request {
	return calendar.Request{Title: title, Day: day, Hour: hour, PinSlot: true, Priority: prio, Must: must}
}

func TestReconnectSessionPushesQueuedOpsAndPulls(t *testing.T) {
	w := newWorld(t, "andy", "phil", "mob")
	ctx := context.Background()
	mob, phil, andy := w.cals["mob"], w.cals["phil"], w.cals["andy"]

	// A shared meeting while everyone is online, so andy and phil are
	// both sync peers of mob afterwards.
	if _, err := mob.SetupMeeting(ctx, pinned("kickoff", "2003-04-22", 9, 1, "andy", "phil")); err != nil {
		t.Fatal(err)
	}

	// mob drops off the network.
	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)

	// While mob is away, andy schedules a meeting that includes mob.
	am, err := andy.SetupMeeting(ctx, pinned("review", "2003-04-23", 10, 1, "mob"))
	if err != nil {
		t.Fatal(err)
	}
	if am.Status == calendar.StatusConfirmed {
		t.Fatal("andy's meeting should be tentative while mob is unreachable")
	}

	// mob keeps working locally: two bookings and a cancellation of the
	// second, all queued.
	m1, queued, err := mob.ScheduleOrQueue(ctx, pinned("standup", "2003-04-24", 9, 1, "phil"))
	if err != nil || !queued {
		t.Fatalf("ScheduleOrQueue: queued=%v err=%v", queued, err)
	}
	m2, queued, err := mob.ScheduleOrQueue(ctx, pinned("retro", "2003-04-24", 11, 1, "phil"))
	if err != nil || !queued {
		t.Fatalf("ScheduleOrQueue: queued=%v err=%v", queued, err)
	}
	if queued, err := mob.CancelOrQueue(ctx, m2.ID); err != nil || !queued {
		t.Fatalf("CancelOrQueue: queued=%v err=%v", queued, err)
	}
	if got := w.nodes["mob"].Offline.Queue().Len(); got != 3 {
		t.Fatalf("queue len = %d, want 3", got)
	}
	// Local reads keep working in local mode.
	if got, ok := mob.Meeting(m1.ID); !ok || got.Status != calendar.StatusTentative {
		t.Fatalf("local meeting while offline = %+v", got)
	}
	if info := mob.Slot(calendar.Slot{Day: "2003-04-24", Hour: 9}); info.Meeting != m1.ID {
		t.Fatalf("local slot not reserved by offline booking: %+v", info)
	}

	// Reconnect: the session pushes the queue and pulls relevant state.
	w.heal("mob")
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err != nil {
		t.Fatalf("TryReconnect: %v", err)
	}
	if got := w.nodes["mob"].Offline.State(); got != offline.StateOnline {
		t.Fatalf("state = %s, want online", got)
	}
	if got := w.nodes["mob"].Offline.Queue().Len(); got != 0 {
		t.Fatalf("queue not drained: %d ops left", got)
	}

	// m1 went through the real negotiation path: confirmed, phil holds
	// the slot, and the coordination link exists.
	got, ok := mob.Meeting(m1.ID)
	if !ok || got.Status != calendar.StatusConfirmed || got.LinkID == "" {
		t.Fatalf("replayed meeting = %+v, want confirmed with a link", got)
	}
	if info := phil.Slot(calendar.Slot{Day: "2003-04-24", Hour: 9}); info.Meeting != m1.ID {
		t.Fatalf("phil's slot after replay = %+v, want %s", info, m1.ID)
	}
	// m2 was cancelled before it ever left the device: no trace at phil.
	if info := phil.Slot(calendar.Slot{Day: "2003-04-24", Hour: 11}); info.Meeting != "" {
		t.Fatalf("cancelled-offline meeting leaked to phil: %+v", info)
	}

	// The pull phase brought andy's meeting to mob.
	pulled, ok := mob.Meeting(am.ID)
	if !ok {
		t.Fatalf("andy's meeting not pulled to mob")
	}
	if pulled.Initiator != "andy" || pulled.Title != "review" {
		t.Fatalf("pulled meeting = %+v", pulled)
	}

	// The session recorded sync-layer metrics.
	snap := w.met.Snapshot()
	if e := snap.Find(metrics.LayerSync, offline.ServiceFor("mob"), "Reconnect", ""); e == nil || e.Count != 1 {
		t.Fatalf("Reconnect metric = %+v", e)
	}
	if e := snap.Find(metrics.LayerSync, offline.ServiceFor("mob"), "Push", ""); e == nil {
		t.Fatal("missing Push metric")
	}
	if e := snap.Find(metrics.LayerSync, offline.ServiceFor("mob"), "Pull", ""); e == nil {
		t.Fatal("missing Pull metric")
	}
}

// TestFullQueueKeepsEveryAckedOp: an op ScheduleOrQueue answered
// queued=true for stays queued. When the queue is full the next op is
// refused with CodeUnavailable and leaves no trace: no tentative meeting
// and no held slot that nothing would replay.
func TestFullQueueKeepsEveryAckedOp(t *testing.T) {
	w := newWorld(t, "phil")
	w.queueCap = 2
	w.addUser(t, "mob")
	ctx := context.Background()
	mob, node := w.cals["mob"], w.nodes["mob"]
	w.cut("mob")
	node.Offline.GoOffline(ctx)

	var acked []string
	for _, hour := range []int{9, 10} {
		m, queued, err := mob.ScheduleOrQueue(ctx, pinned("standup", "2003-04-24", hour, 1, "phil"))
		if err != nil || !queued {
			t.Fatalf("ScheduleOrQueue at %d: queued=%v err=%v", hour, queued, err)
		}
		acked = append(acked, m.ID)
	}
	rows := func() (meetings, slots int) {
		for name, n := range map[string]*int{"cal_meetings": &meetings, "cal_slots": &slots} {
			tab, err := node.DB.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			*n = tab.Count()
		}
		return meetings, slots
	}
	meetings, slots := rows()

	m, queued, err := mob.ScheduleOrQueue(ctx, pinned("retro", "2003-04-24", 11, 1, "phil"))
	if wire.CodeOf(err) != wire.CodeUnavailable || queued || m != nil {
		t.Fatalf("ScheduleOrQueue on a full queue = %+v, queued=%v, err=%v; want refused (unavailable)", m, queued, err)
	}
	var got []string
	for _, op := range node.Offline.Queue().Ops() {
		got = append(got, op.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("queued ops = %v, want the acked %v", got, acked)
	}
	if gm, gs := rows(); gm != meetings || gs != slots {
		t.Fatalf("refused op wrote rows: cal_meetings %d -> %d, cal_slots %d -> %d", meetings, gm, slots, gs)
	}
	if info := mob.Slot(calendar.Slot{Day: "2003-04-24", Hour: 11}); info.Meeting != "" {
		t.Fatalf("refused op holds the slot: %+v", info)
	}
}

// TestServiceQueuesInLocalMode: what the CLI sends a device in local
// mode, cal.<user>'s Schedule and CancelMeeting, goes to the op queue:
// Schedule answers with the queued tentative meeting, CancelMeeting
// queues the cancel after checking its caller, and both drain on
// reconnect.
func TestServiceQueuesInLocalMode(t *testing.T) {
	w := newWorld(t, "phil", "mob")
	ctx := context.Background()
	mob, phil := w.cals["mob"], w.cals["phil"]
	early := calendar.Slot{Day: "2003-04-22", Hour: 9}
	late := calendar.Slot{Day: "2003-04-24", Hour: 10}
	kickoff, err := mob.SetupMeeting(ctx, pinned("kickoff", early.Day, early.Hour, 1, "phil"))
	if err != nil || kickoff.Status != calendar.StatusConfirmed {
		t.Fatalf("kickoff = %+v, %v", kickoff, err)
	}

	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)
	// The CLI runs beside the device, so its calls reach the node; the
	// node's own calls out are what local mode stops.
	invoke := func(caller, method string, args wire.Args) *transport.Response {
		t.Helper()
		resp, err := w.net.Call(ctx, "node-mob", &transport.Request{
			Service: calendar.ServiceFor("mob"), Method: method, Caller: caller, Args: args,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	queue := w.nodes["mob"].Offline.Queue()

	req, err := json.Marshal(pinned("review", late.Day, late.Hour, 1, "phil"))
	if err != nil {
		t.Fatal(err)
	}
	resp := invoke("mob", "Schedule", wire.Args{wire.Raw("request", req)})
	if !resp.OK {
		t.Fatalf("Schedule in local mode: %s %s", resp.Code, resp.Error)
	}
	var review calendar.Meeting
	if err := wire.Unmarshal(resp.Result, &review); err != nil {
		t.Fatal(err)
	}
	if review.Status != calendar.StatusTentative || review.LinkID != "" || review.Slot != late {
		t.Fatalf("Schedule in local mode answered %+v, want the queued tentative meeting", review)
	}
	if resp := invoke("mallory", "CancelMeeting", wire.Args{wire.Str("meeting", kickoff.ID)}); resp.OK || resp.Code != wire.CodeAuth {
		t.Fatalf("mallory's cancel in local mode = %+v, want refused (auth)", resp)
	}
	if resp := invoke("mob", "CancelMeeting", wire.Args{wire.Str("meeting", kickoff.ID)}); !resp.OK {
		t.Fatalf("CancelMeeting in local mode: %s %s", resp.Code, resp.Error)
	}
	if got, _ := mob.Meeting(kickoff.ID); got.Status != calendar.StatusCancelled {
		t.Fatalf("kickoff while offline = %+v, want cancelled locally", got)
	}
	ops := queue.Ops()
	if len(ops) != 2 || ops[0].Kind != "schedule" || ops[0].ID != review.ID || ops[1].Kind != "cancel" || ops[1].ID != kickoff.ID {
		t.Fatalf("queue = %+v, want the schedule of %s and the cancel of %s", ops, review.ID, kickoff.ID)
	}

	w.heal("mob")
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err != nil {
		t.Fatalf("TryReconnect: %v", err)
	}
	if got := queue.Len(); got != 0 {
		t.Fatalf("queue not drained: %d ops left", got)
	}
	if got, _ := mob.Meeting(review.ID); got.Status != calendar.StatusConfirmed || got.LinkID == "" {
		t.Fatalf("review after the drain = %+v, want confirmed with a link", got)
	}
	if info := phil.Slot(late); info.Meeting != review.ID {
		t.Fatalf("phil's %s after the drain = %+v, want %s", late, info, review.ID)
	}
	if info := phil.Slot(early); info.Meeting != "" {
		t.Fatalf("phil's %s after the drain = %+v, want the kickoff's cancel to have freed it", early, info)
	}
}

// TestPulledTentativeRecordQueuesItsLink: a participant that was away
// when a meeting went tentative over it was never sent a link, and the
// record it pulls on reconnect is the install, as a pushed one would have
// been: it queues its own tentative link behind whatever holds its slot,
// so the blocker's cancellation confirms the meeting.
func TestPulledTentativeRecordQueuesItsLink(t *testing.T) {
	w := newWorld(t, "andy", "phil", "mob")
	ctx := context.Background()
	mob, phil, andy := w.cals["mob"], w.cals["phil"], w.cals["andy"]
	at := calendar.Slot{Day: "2003-04-23", Hour: 10}

	// andy must be a sync peer of mob; phil's offsite holds mob's slot.
	if _, err := andy.SetupMeeting(ctx, pinned("kickoff", "2003-04-22", 9, 1, "mob")); err != nil {
		t.Fatal(err)
	}
	offsite, err := phil.SetupMeeting(ctx, pinned("offsite", at.Day, at.Hour, 1, "mob"))
	if err != nil || offsite.Status != calendar.StatusConfirmed {
		t.Fatalf("offsite = %+v, %v", offsite, err)
	}

	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)
	review, err := andy.SetupMeeting(ctx, pinned("review", at.Day, at.Hour, 1, "mob"))
	if err != nil || review.Status == calendar.StatusConfirmed {
		t.Fatalf("review while mob is away = %+v, %v; want it tentative", review, err)
	}
	if _, ok := mob.Meeting(review.ID); ok {
		t.Fatal("the partition let andy's push through")
	}

	w.heal("mob")
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err != nil {
		t.Fatalf("TryReconnect: %v", err)
	}
	l, ok := mob.Links().GetLink(review.LinkID)
	if !ok || l.Subtype != links.Tentative || l.WaitingOn != offsite.LinkID {
		t.Fatalf("mob's link after the pull = %+v, want tentative waiting on the offsite's %s", l, offsite.LinkID)
	}
	waiting, err := w.nodes["mob"].DB.Table(links.WaitingLinkTable)
	if err != nil {
		t.Fatal(err)
	}
	var on string
	if !waiting.View(func(r store.Row) { on = r.Str("waiting_on") }, review.LinkID) || on != offsite.LinkID {
		t.Fatalf("mob's link waits on %q, want %s", on, offsite.LinkID)
	}

	if err := phil.CancelMeeting(ctx, offsite.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := andy.Meeting(review.ID); got.Status != calendar.StatusConfirmed {
		t.Fatalf("review after the offsite's cancel = %+v, want confirmed", got)
	}
	if info := mob.Slot(at); info.Meeting != review.ID {
		t.Fatalf("mob's slot = %+v, want %s", info, review.ID)
	}
}

func TestReplayIsIdempotentUnderDuplicateDrain(t *testing.T) {
	w := newWorld(t, "phil", "mob")
	ctx := context.Background()
	mob := w.cals["mob"]

	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)
	m, _, err := mob.ScheduleOrQueue(ctx, pinned("standup", "2003-04-24", 9, 1, "phil"))
	if err != nil {
		t.Fatal(err)
	}
	op := w.nodes["mob"].Offline.Queue().Ops()[0]

	w.heal("mob")
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err != nil {
		t.Fatal(err)
	}
	first, _ := mob.Meeting(m.ID)

	// Simulate a re-delivered drain of the already-pushed op (a crash
	// between replay and ack): the pinned id makes it a no-op.
	if err := mob.ReplayOp(ctx, op); err != nil {
		t.Fatalf("duplicate replay: %v", err)
	}
	second, _ := mob.Meeting(m.ID)
	if second.LinkID != first.LinkID {
		t.Fatalf("duplicate replay rebuilt the meeting: link %s -> %s", first.LinkID, second.LinkID)
	}
	if info := w.cals["phil"].Slot(calendar.Slot{Day: "2003-04-24", Hour: 9}); info.Meeting != m.ID {
		t.Fatalf("phil's slot after duplicate replay = %+v", info)
	}
}

func TestTryReconnectAbortsWhenDirectoryUnreachable(t *testing.T) {
	w := newWorld(t, "phil", "mob")
	ctx := context.Background()

	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err == nil {
		t.Fatal("TryReconnect should fail while the directory is unreachable")
	}
	if got := w.nodes["mob"].Offline.State(); got != offline.StateOffline {
		t.Fatalf("state = %s, want offline after failed reconnect", got)
	}
}

// TestRelevancePullBeatsFullPull is the comparative test: a device
// pulling with the relevance predicate receives only the entities it
// participates in, while the full-state baseline ships everything.
func TestRelevancePullBeatsFullPull(t *testing.T) {
	w := newWorld(t, "andy", "mob")
	ctx := context.Background()
	andy := w.cals["andy"]

	const total, shared = 24, 4
	day := func(i int) string { return fmt.Sprintf("2003-05-%02d", 1+i%28) }
	for i := 0; i < total; i++ {
		req := pinned(fmt.Sprintf("m%02d", i), day(i), 9+i/28, 1)
		if i < shared {
			req.Must = []string{"mob"}
		}
		if _, err := andy.SetupMeeting(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	pull := func(all bool) offline.PullResult {
		var res offline.PullResult
		err := w.nodes["mob"].Engine.Invoke(ctx, offline.ServiceFor("andy"), "Pull", wire.Args{
			wire.Str("subscriber", "mob"),
			wire.Bool("all", all),
		}, &res)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	rel := pull(false)
	full := pull(true)
	if full.Sent != total {
		t.Fatalf("full pull sent %d, want %d", full.Sent, total)
	}
	if rel.Sent != shared {
		t.Fatalf("relevance pull sent %d, want %d", rel.Sent, shared)
	}
	if rel.Irrelevant != total-shared {
		t.Fatalf("irrelevant = %d, want %d", rel.Irrelevant, total-shared)
	}
	relBytes, fullBytes := payloadBytes(rel), payloadBytes(full)
	if relBytes*2 >= fullBytes {
		t.Fatalf("relevance pull should be well under half the bytes: %d vs %d", relBytes, fullBytes)
	}

	// Version vector: once mob is caught up, unchanged rows cost zero
	// payload bytes.
	have := map[string]int64{}
	for _, e := range rel.Entities {
		have[e.Entity] = e.Version
	}
	versions, err := json.Marshal(have)
	if err != nil {
		t.Fatal(err)
	}
	var res offline.PullResult
	if err := w.nodes["mob"].Engine.Invoke(ctx, offline.ServiceFor("andy"), "Pull", wire.Args{
		wire.Str("subscriber", "mob"),
		wire.Raw("versions", versions),
	}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Sent != 0 || res.Unchanged != shared {
		t.Fatalf("caught-up pull = %+v, want 0 sent / %d unchanged", res, shared)
	}
}

func payloadBytes(res offline.PullResult) int {
	n := 0
	for _, e := range res.Entities {
		n += len(e.Doc)
	}
	return n
}
