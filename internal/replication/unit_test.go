package replication_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/listener"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/wal"
)

// rawPrimary serves a hand-built Primary (no core node) so tests can
// control the WAL layout — small segments force snapshot bootstrap.
func rawPrimary(t *testing.T, fx *fixture, user string, d *wal.Durable) (*replication.Primary, *directory.Client) {
	t.Helper()
	ctx := context.Background()
	dir := fx.dirClient()
	prim, err := replication.NewPrimary(replication.PrimaryConfig{
		User: user, Durable: d, Dir: dir, Holder: "node-" + user,
		LeaseTTL: leaseTTL, Clock: fx.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	lis := listener.New(user, nil)
	lis.Register(replication.ServiceFor(user), prim.Object())
	ln, err := fx.net.Listen("node-"+user, lis)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterUser(ctx, user, ln.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	return prim, dir
}

// TestFollowerSnapshotBootstrap: a follower joining after the primary
// has checkpointed away the early log must bootstrap from a snapshot,
// then catch up the tail incrementally.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	d, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, err := d.DB.CreateTable(store.Schema{
		Name:    "slots",
		Columns: []store.Column{{Name: "entity", Type: store.String}, {Name: "holder", Type: store.String}},
		Key:     []string{"entity"},
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := insertRow(d.DB, tbl, rowOf(tbl, "entity", fmt.Sprintf("e%d-%d", d.LastLSN(), i), "holder", "m")); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(50)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(50)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(5)

	_, _ = rawPrimary(t, fx, "p", d)
	f, err := replication.StartFollower(ctx, replication.FollowerConfig{
		User: "p", Net: fx.net, Dir: fx.dirClient(), DataDir: t.TempDir(),
		ListenAddr: "repl-p-1", LeaseTTL: leaseTTL, Clock: fx.clk,
		Promote: func(context.Context, string) (string, error) {
			t.Error("unexpected promotion")
			return "", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First pull cannot read from LSN 1 (trimmed) — it must take the
	// snapshot path, then tail pulls finish the job.
	for i := 0; f.Status().AppliedLSN < d.LastLSN(); i++ {
		if i > 50 {
			t.Fatalf("stuck at %d, tail %d", f.Status().AppliedLSN, d.LastLSN())
		}
		if err := f.PullOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want exactly one bootstrap", st.Snapshots)
	}
	if st.Role != replication.RoleFollower || st.User != "p" {
		t.Fatalf("status = %+v", st)
	}

	// Byte-identical store state: every row the primary holds.
	want, err := d.DB.Table("slots")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Durable().DB.Table("slots")
	if err != nil {
		t.Fatal(err)
	}
	if wr, gr := want.Count(), got.Count(); wr != gr {
		t.Fatalf("follower has %d rows, primary %d", gr, wr)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestFollowerSelfDrivenLoops: PullEvery/LeaseCheckEvery run the
// follower's own loops (the sydnode -replica-of mode). The loops wait
// on the injected clock, so the test pumps the fake clock to tick them.
func TestFollowerSelfDrivenLoops(t *testing.T) {
	fx := newFixture(t)
	d, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, err := d.DB.CreateTable(store.Schema{
		Name:    "slots",
		Columns: []store.Column{{Name: "entity", Type: store.String}, {Name: "holder", Type: store.String}},
		Key:     []string{"entity"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(d.DB, tbl, rowOf(tbl, "entity", "s0", "holder", "m")); err != nil {
		t.Fatal(err)
	}
	rawPrimary(t, fx, "p", d)

	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User: "p", Net: fx.net, Dir: fx.dirClient(), DataDir: t.TempDir(),
		LeaseTTL: leaseTTL, Clock: fx.clk,
		PullEvery: time.Millisecond, LeaseCheckEvery: time.Millisecond,
		Promote: func(context.Context, string) (string, error) {
			t.Error("unexpected promotion (lease is live)")
			return "", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Addr() == "" {
		t.Fatal("follower should have a bound address")
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().AppliedLSN < d.LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("pull loop never caught up: %d < %d", f.Status().AppliedLSN, d.LastLSN())
		}
		fx.clk.Advance(time.Millisecond) // tick the pull loop
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerSelfDrivenPromotion: promotion fired from the follower's
// own lease-watch loop (the sydnode -replica-of mode). Regression: the
// loop hands CheckLease its loop context, which PromoteNow cancels
// mid-promotion — the boot must run on a detached context or the
// promoted node dies before it starts.
func TestFollowerSelfDrivenPromotion(t *testing.T) {
	fx := newFixture(t)
	d, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rawPrimary(t, fx, "p", d)

	booted := make(chan string, 1)
	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User: "p", Net: fx.net, Dir: fx.dirClient(), DataDir: t.TempDir(),
		ListenAddr: "repl-p-1", LeaseTTL: leaseTTL, Clock: fx.clk,
		PullEvery: time.Millisecond, LeaseCheckEvery: time.Millisecond,
		Logf: t.Logf,
		Promote: func(ctx context.Context, holder string) (string, error) {
			// The real PromoteFunc boots core.Start, whose directory
			// RPCs fail instantly on a dead context.
			if err := ctx.Err(); err != nil {
				return "", fmt.Errorf("promotion ran on a dead context: %w", err)
			}
			if err := fx.dirClient().RegisterUser(ctx, "p", "node-p2", 0); err != nil {
				return "", err
			}
			booted <- holder
			return "node-p2", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Expire the lease, then keep ticking the fake clock so the
	// lease-watch loop (which waits on it) observes the expiry.
	fx.clk.Advance(leaseTTL + time.Second)
	var holder string
	deadline := time.Now().Add(5 * time.Second)
waitBoot:
	for {
		select {
		case holder = <-booted:
			break waitBoot
		default:
			if time.Now().After(deadline) {
				t.Fatal("lease-watch loop never promoted")
			}
			fx.clk.Advance(time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	if holder != "repl-p-1" {
		t.Fatalf("promoted under holder %q, want repl-p-1", holder)
	}
	info, err := fx.dirClient().LookupUser(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != "node-p2" {
		t.Fatalf("directory points at %q after promotion, want node-p2", info.Addr)
	}
}

// TestCheckLeaseBranches: no lease registered → no-op; live lease →
// no-op; expired lease → promotion, once.
func TestCheckLeaseBranches(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	d, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	promoted := 0
	f, err := replication.StartFollower(ctx, replication.FollowerConfig{
		User: "p", Net: fx.net, Dir: fx.dirClient(), DataDir: t.TempDir(),
		ListenAddr: "repl-p-1", LeaseTTL: leaseTTL, Clock: fx.clk,
		Promote: func(context.Context, string) (string, error) {
			promoted++
			return "node-p2", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// No lease in the directory at all: nothing to do.
	if did, err := f.CheckLease(ctx); err != nil || did {
		t.Fatalf("no-lease check = (%v, %v), want (false, nil)", did, err)
	}

	rawPrimary(t, fx, "p", d)
	if did, err := f.CheckLease(ctx); err != nil || did {
		t.Fatalf("live-lease check = (%v, %v), want (false, nil)", did, err)
	}

	fx.clk.Advance(leaseTTL + time.Second)
	did, err := f.CheckLease(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !did || promoted != 1 {
		t.Fatalf("expired-lease check = %v (promotions %d), want promotion", did, promoted)
	}
	// Already promoted: further checks are no-ops.
	if did, err := f.CheckLease(ctx); err != nil || did {
		t.Fatalf("post-promotion check = (%v, %v), want (false, nil)", did, err)
	}
}

// TestConfigValidation covers the constructor guard rails.
func TestConfigValidation(t *testing.T) {
	fx := newFixture(t)
	dir := fx.dirClient()
	d, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	primaryCases := []replication.PrimaryConfig{
		{},
		{User: "p"},
		{User: "p", Durable: d},
		{User: "p", Durable: d, Dir: dir},
		{User: "p", Durable: d, Dir: dir, LeaseTTL: time.Second},
	}
	for i, cfg := range primaryCases {
		if _, err := replication.NewPrimary(cfg); err == nil {
			t.Errorf("NewPrimary case %d: expected a validation error", i)
		}
	}
	followerCases := []replication.FollowerConfig{
		{},
		{User: "p"},
		{User: "p", Net: fx.net},
		{User: "p", Net: fx.net, Dir: dir},
		{User: "p", Net: fx.net, Dir: dir, DataDir: "x"},
		{User: "p", Net: fx.net, Dir: dir, DataDir: "x", LeaseTTL: time.Second},
	}
	for i, cfg := range followerCases {
		if _, err := replication.StartFollower(context.Background(), cfg); err == nil {
			t.Errorf("StartFollower case %d: expected a validation error", i)
		}
	}
}

// rowOf builds a row of t from column, value pairs.
func rowOf(t *store.Table, kv ...any) store.Row {
	r := t.NewRow()
	for i := 0; i < len(kv); i += 2 {
		r.Set(kv[i].(string), kv[i+1])
	}
	return r
}
