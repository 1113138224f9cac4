package replication_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The failover proof: a 3-node replica set (primary x + two
// followers) embedded in a live deployment — one directory,
// coordinator nodes racing negotiations through x. The primary is
// killed mid-two-phase-commit; the test then asserts the whole
// recovery chain: a follower promotes within one lease TTL, the
// directory re-points x and its services in one RPC, the
// coordinator's journal redrive completes every
// in-flight negotiation against the promoted backup, and no acked
// commit is lost.

const leaseTTL = 30 * time.Second

type fixture struct {
	t   *testing.T
	net *sim.Net
	clk *clock.Fake
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(100*time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, net: net, clk: clk}
}

// dirClient returns a fresh directory client (followers and assertions
// each get their own, like real processes would).
func (fx *fixture) dirClient() *directory.Client {
	return directory.NewClient(fx.net, "dir")
}

// addNode boots a plain node or, with a lease TTL, a durable replicated
// primary advertising replicas.
func (fx *fixture) addNode(user string, leaseTTL time.Duration, replicas ...string) *core.Node {
	fx.t.Helper()
	cfg := core.Config{User: user}
	if leaseTTL > 0 {
		cfg.DataDir = fx.t.TempDir()
		cfg.LeaseTTL = leaseTTL
		cfg.Replicas = replicas
	}
	return fx.start(cfg)
}

// start boots a node from cfg on the fixture's network, directory and
// clock, and registers the store-backed slot actions on it.
func (fx *fixture) start(cfg core.Config) *core.Node {
	fx.t.Helper()
	cfg.Net, cfg.DirAddr, cfg.Clock = fx.net, "dir", fx.clk
	n, err := core.Start(context.Background(), cfg)
	if err != nil {
		fx.t.Fatal(err)
	}
	registerSlotActions(n)
	return n
}

// registerSlotActions gives a node a replicable slot table: unlike the
// in-memory maps of the links tests, the slots live in the node's own
// database, so on a durable node every reserve/release rides the WAL
// to the followers. Table creation tolerates ErrDupTable — on a
// promoted follower the replicated state already has it.
func registerSlotActions(n *core.Node) {
	_, err := n.DB.CreateTable(store.Schema{
		Name: "slots",
		Columns: []store.Column{
			{Name: "entity", Type: store.String},
			{Name: "holder", Type: store.String},
		},
		Key: []string{"entity"},
	})
	if err != nil && !errors.Is(err, store.ErrDupTable) {
		panic(err)
	}
	get := func(entity string) string {
		t, err := n.DB.Table("slots")
		if err != nil {
			return ""
		}
		if r, ok := getRow(t, entity); ok {
			return r.Str("holder")
		}
		return ""
	}
	set := func(entity, holder string) error {
		t, err := n.DB.Table("slots")
		if err != nil {
			return err
		}
		if _, ok := getRow(t, entity); ok {
			return updateRow(n.DB, t, rowOf(t, "holder", holder), entity)
		}
		return insertRow(n.DB, t, rowOf(t, "entity", entity, "holder", holder))
	}
	n.Links.RegisterAction("reserve", links.Action{
		Check: func(entity string, args wire.Args) error {
			meeting := args.String("meeting")
			if cur := get(entity); cur != "" && cur != meeting {
				return &wire.RemoteError{Code: wire.CodeConflict, Msg: fmt.Sprintf("%s/%s already reserved for %s", n.User, entity, cur)}
			}
			return nil
		},
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			return set(entity, args.String("meeting"))
		},
	})
	n.Links.RegisterAction("release", links.Action{
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			return set(entity, "")
		},
	})
}

// slotOn reads the slot table directly.
func slotOn(t *testing.T, n *core.Node, entity string) string {
	t.Helper()
	tab, err := n.DB.Table("slots")
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := getRow(tab, entity); ok {
		return r.Str("holder")
	}
	return ""
}

// startFollower boots a standby for x at addr whose PromoteFunc boots
// a full node over the follower's directory and reports it on the
// promoted channel.
func (fx *fixture) startFollower(addr, dataDir string, promoted chan *core.Node) *replication.Follower {
	fx.t.Helper()
	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User:       "x",
		Net:        fx.net,
		Dir:        fx.dirClient(),
		DataDir:    dataDir,
		ListenAddr: addr,
		LeaseTTL:   leaseTTL,
		Clock:      fx.clk,
		Promote: func(ctx context.Context, holder string) (string, error) {
			n := fx.start(core.Config{User: "x", DataDir: dataDir, LeaseTTL: leaseTTL, LeaseHolder: holder})
			promoted <- n
			return n.Addr(), nil
		},
	})
	if err != nil {
		fx.t.Fatal(err)
	}
	return f
}

// drainFollowers pulls both followers until they reach the primary's
// log tail.
func drainFollowers(t *testing.T, x *core.Node, fs ...*replication.Follower) {
	t.Helper()
	ctx := context.Background()
	tail := x.Durable.LastLSN()
	for _, f := range fs {
		for i := 0; f.Status().AppliedLSN < tail; i++ {
			if i > 100 {
				t.Fatalf("follower %s stuck at %d, tail %d", f.Addr(), f.Status().AppliedLSN, tail)
			}
			if err := f.PullOnce(ctx); err != nil {
				t.Fatalf("pull: %v", err)
			}
		}
	}
}

func TestFailoverRecoversAckedCommits(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	a := fx.addNode("a", 0)
	b := fx.addNode("b", 0)
	y := fx.addNode("y", 0)
	x := fx.addNode("x", leaseTTL, "repl-x-1", "repl-x-2")

	promoted := make(chan *core.Node, 2)
	f1 := fx.startFollower("repl-x-1", t.TempDir(), promoted)
	f2 := fx.startFollower("repl-x-2", t.TempDir(), promoted)

	// Acked baseline: a clean negotiation through x and y, replicated
	// to both followers before the fault.
	if _, err := a.Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M0")},
		Targets:    []links.EntityRef{{User: "x", Entity: "s0"}, {User: "y", Entity: "s0"}},
		Constraint: links.And,
	}); err != nil {
		t.Fatal(err)
	}

	// Mid-two-phase-commit: two negotiations race through x
	// concurrently. Coordinator a's Commit to x fails (the crash is
	// about to take x down), so its decided-commit stays journaled;
	// coordinator b's negotiation on another slot completes cleanly.
	a.Links.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "x" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "chaos: primary dying"}
		}
		return nil
	})
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = a.Links.Negotiate(ctx, links.Spec{
			Action: "reserve", Args: wire.Args{wire.Str("meeting", "MF")},
			Targets:    []links.EntityRef{{User: "x", Entity: "s1"}, {User: "y", Entity: "s1"}},
			Constraint: links.And,
		})
	}()
	go func() {
		defer wg.Done()
		_, errB = b.Links.Negotiate(ctx, links.Spec{
			Action: "reserve", Args: wire.Args{wire.Str("meeting", "MB")},
			Targets:    []links.EntityRef{{User: "x", Entity: "s2"}, {User: "y", Entity: "s2"}},
			Constraint: links.And,
		})
	}()
	wg.Wait()
	var inDoubt *links.InDoubtError
	if !errors.As(errA, &inDoubt) {
		t.Fatalf("errA = %v, want in-doubt (commit to x faulted)", errA)
	}
	if errB != nil {
		t.Fatalf("errB = %v", errB)
	}
	if got := len(a.Links.JournalPending()); got == 0 {
		t.Fatal("coordinator a should hold a pending journal row for x")
	}

	// Everything acked-and-durable on x is on the followers before the
	// crash (shipping had caught up; the in-flight commit to x never
	// reached it, so there is nothing newer to ship).
	drainFollowers(t, x, f1, f2)

	// Kill x abruptly: no more renewals, unreachable to everyone. The
	// injected fault has done its job (the commit never reached x);
	// from here the real outage takes over.
	x.Events.Close()
	fx.net.SetDown("node-x", true)
	a.Links.SetCommitFault(nil)

	// One lease TTL later the followers notice. Both check; the lease
	// check-and-set plus the LSN/address tie-break admit exactly one.
	fx.clk.Advance(leaseTTL + time.Second)
	did2, err := f2.CheckLease(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if did2 {
		t.Fatal("f2 promoted despite f1 being an equal candidate with the lower address")
	}
	did1, err := f1.CheckLease(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !did1 {
		t.Fatal("f1 did not promote")
	}
	x2 := <-promoted

	// The slot state the old x acked is all there: zero acked commits
	// lost, byte-for-byte through the shipped WAL.
	if got := slotOn(t, x2, "s0"); got != "M0" {
		t.Fatalf("s0 on promoted x = %q, want M0", got)
	}
	if got := slotOn(t, x2, "s2"); got != "MB" {
		t.Fatalf("s2 on promoted x = %q, want MB", got)
	}

	// Directory re-pointed in one RPC: the user and its services.
	if info, err := a.Dir.LookupUser(ctx, "x"); err != nil || info.Addr != x2.Addr() {
		t.Fatalf("directory points x at %+v (err=%v), want %s", info, err, x2.Addr())
	}
	if info, err := a.Dir.ResolveService(ctx, "links.x"); err != nil || info.Addr != x2.Addr() {
		t.Fatalf("directory routes links.x to %+v (err=%v), want %s", info, err, x2.Addr())
	}

	// Journal redrive: coordinator a's sweeps now reach the promoted
	// backup and drive the in-flight negotiation to a definitive
	// commit (the late-commit path re-locks and re-checks on x2).
	drained := false
	for i := 0; i < 120 && !drained; i++ {
		fx.clk.Advance(time.Second)
		_ = x2.Repl.Renew(ctx)
		drained = true
		for _, n := range []*core.Node{a, b, y, x2} {
			n.Links.FaultSweep(ctx, fx.clk.Now())
			if len(n.Links.JournalPending()) > 0 || n.Links.PendingMarks() > 0 {
				drained = false
			}
		}
	}
	if !drained {
		t.Fatalf("journals/marks did not drain against the promoted backup: a=%v", a.Links.JournalPending())
	}
	sx, sy := slotOn(t, x2, "s1"), slotOn(t, y, "s1")
	if sx != "MF" || sy != "MF" {
		t.Fatalf("in-flight negotiation not driven to commit: x=%q y=%q", sx, sy)
	}

	// Split-brain check: the dead primary's host cannot boot back into
	// the primary role — its lease acquisition hits the promoted
	// holder and Start fails before it re-registers anything.
	fx.net.SetDown("node-x", false)
	_, err = core.Start(ctx, core.Config{
		User: "x", Net: fx.net, DirAddr: "dir", Clock: fx.clk,
		DataDir: t.TempDir(), LeaseTTL: leaseTTL,
	})
	if !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("old primary restart err = %v, want ErrFenced (lease conflict)", err)
	}
	if info, err := a.Dir.LookupUser(ctx, "x"); err != nil || info.Addr != x2.Addr() {
		t.Fatalf("restart attempt moved the binding: %+v (err=%v)", info, err)
	}
}

// TestFailoverCaughtUpFollowerOutranksLowerAddress: the lease watch
// promotes the follower with the highest applied LSN, not the one with
// the lowest address. TestFailoverRecoversAckedCommits covers only the
// tie, where the lower address wins.
func TestFailoverCaughtUpFollowerOutranksLowerAddress(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fx.addNode("y", 0)

	x := fx.addNode("x", leaseTTL, "repl-x-1", "repl-x-2")

	promoted := make(chan *core.Node, 2)
	f1 := fx.startFollower("repl-x-1", t.TempDir(), promoted)
	f2 := fx.startFollower("repl-x-2", t.TempDir(), promoted)

	if _, err := x.Links.Negotiate(ctx, links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")},
		Targets:    []links.EntityRef{{User: "y", Entity: "s0"}},
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: "s0", Action: "reserve", Args: wire.Args{wire.Str("meeting", "M1")}},
	}); err != nil {
		t.Fatal(err)
	}

	// Only f2 catches up: it must win promotion despite its higher
	// address.
	drainFollowers(t, x, f2)
	if f2.Status().AppliedLSN <= f1.Status().AppliedLSN {
		t.Fatalf("setup: f2 (%d) should be ahead of f1 (%d)", f2.Status().AppliedLSN, f1.Status().AppliedLSN)
	}

	x.Events.Close()
	fx.net.SetDown("node-x", true)

	// Lease still live: neither follower touches a healthy replica set.
	for _, f := range []*replication.Follower{f1, f2} {
		if did, err := f.CheckLease(ctx); err != nil || did {
			t.Fatalf("%s on a live lease: CheckLease = %v, %v; want no promotion", f.Addr(), did, err)
		}
	}

	fx.clk.Advance(leaseTTL + time.Second)
	if did, err := f1.CheckLease(ctx); err != nil || did {
		t.Fatalf("lagging f1: CheckLease = %v, %v; want it to decline", did, err)
	}
	if did, err := f2.CheckLease(ctx); err != nil || !did {
		t.Fatalf("caught-up f2: CheckLease = %v, %v; want a promotion", did, err)
	}
	x2 := <-promoted
	if got := slotOn(t, x2, "s0"); got != "M1" {
		t.Fatalf("promoted node slot = %q, want M1", got)
	}
	lease, err := fx.dirClient().GetLease(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Holder != "repl-x-2" {
		t.Fatalf("lease holder = %q, want repl-x-2 (the caught-up follower)", lease.Holder)
	}
	if f1.Status().Role != replication.RoleFollower {
		t.Fatal("f1 should still be a follower")
	}
	if did, err := f1.CheckLease(ctx); err != nil || did {
		t.Fatalf("f1 after f2 won the lease: CheckLease = %v, %v; want no promotion", did, err)
	}
}

// TestFenceRejectsWritesAfterLeaseLoss: once the lease lapses, the
// primary's own conservative window fences every non-replication
// service; a rival acquisition makes the fence permanent.
func TestFenceRejectsWritesAfterLeaseLoss(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	x := fx.addNode("x", leaseTTL)
	if !x.Repl.LeaseValid() {
		t.Fatal("fresh primary should hold a valid lease")
	}
	rawCall := func(service, method string, args wire.Args) *transport.Response {
		t.Helper()
		resp, err := fx.net.Call(ctx, "node-x", &transport.Request{Service: service, Method: method, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Serving normally while the lease is good.
	if resp := rawCall(links.ServiceFor("x"), "QueryOutcome", wire.Args{wire.Str("nid", "none")}); !resp.OK {
		t.Fatalf("pre-expiry call: %+v", resp)
	}

	// The lease lapses because x cannot reach the directory. Without the
	// cut, the node's own renewal loop wakes on the same Advance and
	// races this test for the expired lease.
	fx.net.Partition("x", "dir")
	fx.clk.Advance(leaseTTL + time.Second)
	if x.Repl.LeaseValid() {
		t.Fatal("lease should have lapsed locally")
	}
	if resp := rawCall(links.ServiceFor("x"), "QueryOutcome", wire.Args{wire.Str("nid", "none")}); resp.OK || resp.Code != wire.CodeUnavailable {
		t.Fatalf("post-expiry call = %+v, want fenced (unavailable)", resp)
	}
	// Replication traffic still flows: a promoter drains the fenced
	// primary through exactly this path.
	if resp := rawCall(replication.ServiceFor("x"), "Status", wire.Args{}); !resp.OK {
		t.Fatalf("repl status through fence: %+v", resp)
	}

	// A rival takes the expired lease while x is still cut off; once x
	// is back, its next renewal — this one or the loop's, whichever
	// lands first — fences it for good.
	if _, err := fx.dirClient().RenewLease(ctx, "x", "rival", leaseTTL, nil); err != nil {
		t.Fatal(err)
	}
	fx.net.Heal("x", "dir")
	if err := x.Repl.Renew(ctx); !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("renew after rival takeover = %v, want ErrFenced", err)
	}
	if !x.Repl.Fenced() {
		t.Fatal("primary should be permanently fenced")
	}
	if !strings.Contains(x.Repl.Status().Holder, "node-x") {
		t.Fatalf("status holder = %q", x.Repl.Status().Holder)
	}
}

// TestFailoverFirstCallOnWarmRoute: after a promotion the caller's
// cached route still names the dead primary; nothing flushes it. The
// first call on it must still succeed: the engine asks the directory
// again and follows the repointed address.
func TestFailoverFirstCallOnWarmRoute(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t)
	caller := fx.start(core.Config{User: "a", RouteCacheTTL: time.Hour})
	x := fx.addNode("x", leaseTTL, "repl-x-1")
	promoted := make(chan *core.Node, 1)
	f := fx.startFollower("repl-x-1", t.TempDir(), promoted)

	probe := func() error {
		return caller.Engine.Invoke(ctx, links.ServiceFor("x"), "QueryOutcome", wire.Args{wire.Str("nid", "none")}, nil)
	}
	if err := probe(); err != nil {
		t.Fatal(err)
	}
	drainFollowers(t, x, f)

	x.Events.Close()
	fx.net.SetDown(x.Addr(), true)
	fx.clk.Advance(leaseTTL + time.Second)
	if did, err := f.CheckLease(ctx); err != nil || !did {
		t.Fatalf("CheckLease = %v, %v; want a promotion", did, err)
	}
	x2 := <-promoted
	if err := probe(); err != nil {
		t.Fatalf("first call after the promotion: %v", err)
	}
	if got := caller.Engine.DirCache().Stats(); got.Invalidations != 0 {
		t.Fatalf("route cache = %+v; want the moved route kept, not dropped", got)
	}
	_ = x2.Close(ctx)
}

// TestHandoffDrainsLaggingFollower: a deliberate handoff (the primary's
// Release, the follower's PromoteNow, the primary's Close) loses no
// write even when the follower has never pulled and one pull carries
// only a fraction of the log; afterwards the directory has x online at
// the promoted node.
func TestHandoffDrainsLaggingFollower(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t)
	x := fx.addNode("x", leaseTTL)
	promoted := make(chan *core.Node, 1)
	f := fx.startFollower("repl-x-1", t.TempDir(), promoted)

	slots, err := x.DB.Table("slots")
	if err != nil {
		t.Fatal(err)
	}
	// 40 rows of 32 KiB: more log than one pull carries.
	const n = 40
	holder := strings.Repeat("M", 32<<10)
	for i := 0; i < n; i++ {
		if err := insertRow(x.DB, slots, rowOf(slots, "entity", fmt.Sprintf("s%02d", i), "holder", holder)); err != nil {
			t.Fatal(err)
		}
	}

	if err := x.Repl.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.PromoteNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(ctx); err != nil {
		t.Fatal(err)
	}
	x2 := <-promoted
	defer x2.Close(ctx)
	// At least two pulls that carry frames, and the one that finds the
	// tail.
	if pulls := f.Status().Pulls; pulls < 3 {
		t.Fatalf("the follower drained the log in %d pulls, want at least 3", pulls)
	}
	for i := 0; i < n; i++ {
		if got := slotOn(t, x2, fmt.Sprintf("s%02d", i)); got != holder {
			t.Fatalf("slot s%02d on the promoted node holds %d bytes, want the %d-byte holder", i, len(got), len(holder))
		}
	}
	dir := fx.dirClient()
	if info, err := dir.LookupUser(ctx, "x"); err != nil || !info.Online || info.Addr != x2.Addr() {
		t.Fatalf("directory has x as %+v, %v; want online at %s", info, err, x2.Addr())
	}
	if lease, err := dir.GetLease(ctx, "x"); err != nil || lease.Holder != "repl-x-1" || lease.Expired {
		t.Fatalf("lease = %+v, %v; want held by repl-x-1", lease, err)
	}
}

// insertRow, updateRow and deleteRow write one row of tab in a unit of
// its own, and getRow copies one out of a visit: the one-row writes and
// point read of these tests. The writes copy what they are given, so a
// caller may reuse its rows.
func insertRow(db *store.DB, tab *store.Table, r store.Row) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Insert(tab.Schema().Name, r.Clone()) })
}

func updateRow(db *store.DB, tab *store.Table, ch store.Row, key ...any) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Update(tab.Schema().Name, ch.Clone(), key...) })
}

func getRow(tab *store.Table, key ...any) (row store.Row, ok bool) {
	ok = tab.View(func(r store.Row) { row = r.Clone() }, key...)
	return row, ok
}
