package directory

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/controlplane"
	"repro/internal/sim"
	"repro/internal/store"
)

// shardedDir is a 4-shard directory deployment on a sim network:
// shard servers at dir0..dirN-1 behind a controller at "cp".
type shardedDir struct {
	net     *sim.Net
	fake    *clock.Fake
	ctl     *controlplane.Controller
	servers []*Server
	shards  []controlplane.Shard
	client  *Client
}

func newShardedDirectory(t *testing.T, shards int, opts ...ClientOption) *shardedDir {
	t.Helper()
	fake := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	net := sim.New(sim.Config{})
	d := &shardedDir{net: net, fake: fake}
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard%d", i)
		srv := NewServer(WithClock(fake), WithTTL(10*time.Second), WithShard(id))
		ln, err := net.Listen(fmt.Sprintf("dir%d", i), srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, srv)
		d.shards = append(d.shards, controlplane.Shard{ID: id, Addr: ln.Addr()})
	}
	d.ctl = controlplane.NewController(d.shards)
	for _, srv := range d.servers {
		d.ctl.Subscribe(srv.SetTable)
	}
	if _, err := net.Listen("cp", d.ctl.Handler()); err != nil {
		t.Fatal(err)
	}
	d.client = NewShardedClient(net, "cp", opts...)
	return d
}

// userCount reads one shard's user-table size directly.
func (d *shardedDir) userCount(i int) int {
	return len(d.servers[i].users.Select(nil))
}

func TestShardedOpsRouteAndSpread(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)
	const n = 32
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%02d", i)
		if err := d.client.RegisterUser(ctx, u, "node-"+u, i); err != nil {
			t.Fatal(err)
		}
		if err := d.client.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"A"}); err != nil {
			t.Fatal(err)
		}
	}
	// Every record is findable through the sharded client.
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%02d", i)
		info, err := d.client.LookupUser(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if info.Addr != "node-"+u || info.Priority != i {
			t.Fatalf("user %s = %+v", u, info)
		}
		svc, err := d.client.ResolveService(ctx, "cal."+u)
		if err != nil {
			t.Fatal(err)
		}
		if svc.Addr != "node-"+u || svc.Owner != u {
			t.Fatalf("service cal.%s = %+v", u, svc)
		}
	}
	// The data actually spread across shards, and each user landed on
	// the shard the table says owns it.
	total, populated := 0, 0
	for i := range d.servers {
		c := d.userCount(i)
		total += c
		if c > 0 {
			populated++
		}
	}
	if total != n || populated < 2 {
		t.Fatalf("users spread: total=%d populated_shards=%d", total, populated)
	}
	// ListUsers merges shards and stays sorted.
	users, err := d.client.ListUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != n {
		t.Fatalf("ListUsers = %d users", len(users))
	}
	for i := 1; i < len(users); i++ {
		if users[i-1].ID >= users[i].ID {
			t.Fatalf("ListUsers unsorted at %d: %s >= %s", i, users[i-1].ID, users[i].ID)
		}
	}
}

func TestShardedServiceCoLocatesWithOwner(t *testing.T) {
	d := newShardedDirectory(t, 4)
	tab := d.ctl.Current()
	for _, owner := range []string{"phil", "andy", "suzy", "u42"} {
		for _, svc := range []string{"cal." + owner, "links." + owner, "sys." + owner} {
			if tab.Owner(ShardKey(svc)) != tab.Owner(owner) {
				t.Fatalf("service %s routes to %s, owner %s to %s",
					svc, tab.Owner(ShardKey(svc)).ID, owner, tab.Owner(owner).ID)
			}
		}
	}
}

func TestShardedGroupAcrossShards(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)
	members := []string{"u01", "u02", "u03", "u04", "u05", "u06", "u07", "u08"}
	for _, m := range members {
		if err := d.client.RegisterUser(ctx, m, "node-"+m, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.client.CreateGroup(ctx, "team", members[:6]); err != nil {
		t.Fatal(err)
	}
	if err := d.client.AddMember(ctx, "team", members[6]); err != nil {
		t.Fatal(err)
	}
	if err := d.client.RemoveMember(ctx, "team", members[0]); err != nil {
		t.Fatal(err)
	}
	got, err := d.client.GroupMembers(ctx, "team")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != "u02" || got[5] != "u07" {
		t.Fatalf("members = %v", got)
	}
	// The group lives on exactly one shard (keyed by group name).
	owners := 0
	for _, srv := range d.servers {
		if len(srv.groupMembers("team")) > 0 {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("group stored on %d shards, want 1", owners)
	}
}

func TestWrongShardRedirectRetriesOnce(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)
	// Prime the client's table at epoch 1.
	if err := d.client.RegisterUser(ctx, "primer", "node-primer", 0); err != nil {
		t.Fatal(err)
	}
	if d.client.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", d.client.Epoch())
	}
	// Shrink the topology: shard3 leaves. Every server learns the
	// epoch-2 table immediately; the client still holds epoch 1.
	old := d.ctl.Current()
	if e := d.ctl.SetShards(d.shards[:3]); e != 2 {
		t.Fatalf("SetShards = %d", e)
	}
	// A key shard3 used to own now routes elsewhere. The client's
	// stale table sends the op to shard3, which answers wrong-shard;
	// the client must refresh and retry transparently.
	moved := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("m%03d", i)
		if old.Owner(k).ID == "shard3" && d.ctl.Current().Owner(k).ID != "shard3" {
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatal("no key moved off shard3")
	}
	if err := d.client.RegisterUser(ctx, moved, "node-"+moved, 0); err != nil {
		t.Fatalf("redirected register failed: %v", err)
	}
	if d.client.Epoch() != 2 {
		t.Fatalf("client epoch after redirect = %d, want 2", d.client.Epoch())
	}
	info, err := d.client.LookupUser(ctx, moved)
	if err != nil || info.Addr != "node-"+moved {
		t.Fatalf("lookup after redirect: %+v, %v", info, err)
	}
	// And the record landed on the epoch-2 owner, not shard3.
	ownerIdx := -1
	for i, s := range d.shards[:3] {
		if s.ID == d.ctl.Current().Owner(moved).ID {
			ownerIdx = i
		}
	}
	found := false
	for _, r := range d.servers[ownerIdx].users.Select(nil) {
		if r["id"] == moved {
			found = true
		}
	}
	if !found {
		t.Fatalf("record for %q not on owning shard %s", moved, d.shards[ownerIdx].ID)
	}
}

func TestShardedReconnectAfterEpochBump(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)
	// An offline user, registered at epoch 1. Find a user key shard3 owns at epoch 1 but loses when the
	// topology shrinks — the interesting reconnect case.
	old := d.ctl.Current()
	user := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("mob%03d", i)
		if old.Owner(k).ID == "shard3" {
			user = k
			break
		}
	}
	if user == "" {
		t.Fatal("no key owned by shard3")
	}
	if err := d.client.RegisterUser(ctx, user, "node-"+user, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.client.SetOffline(ctx, user, true); err != nil {
		t.Fatal(err)
	}
	before, _ := d.client.LookupUser(ctx, user)
	if before.Online {
		t.Fatalf("offline user = %+v", before)
	}
	// The user's record migrates: shard3 leaves, epoch bumps to 2.
	// (Records move via snapshot restore in production; here we
	// re-insert on the new owner to model the migrated row.)
	row := store.Row{}
	for _, r := range d.servers[3].users.Select(nil) {
		if r["id"] == user {
			row = r
		}
	}
	if len(row) == 0 {
		t.Fatalf("user %q not on shard3", user)
	}
	if e := d.ctl.SetShards(d.shards[:3]); e != 2 {
		t.Fatalf("SetShards = %d", e)
	}
	newOwner := d.ctl.Current().Owner(user).ID
	for i, s := range d.shards[:3] {
		if s.ID == newOwner {
			if err := d.servers[i].users.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The device reconnects AFTER the epoch bump while the client
	// still holds the epoch-1 table: SetOffline must survive the
	// wrong-shard redirect and land on the new owner.
	if err := d.client.SetOffline(ctx, user, false); err != nil {
		t.Fatalf("reconnect after epoch bump: %v", err)
	}
	if d.client.Epoch() != 2 {
		t.Fatalf("client epoch after reconnect = %d, want 2", d.client.Epoch())
	}
	info, err := d.client.LookupUser(ctx, user)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Online || info.Addr != "node-"+user {
		t.Fatalf("post-reconnect info = %+v", info)
	}
}

// TestEpochBumpFiresHooksOnNextRPC: a client holding the old table
// learns of a bump from the epoch stamped on its next response, whatever
// the op, and tells its hooks (the engine's route cache) at once.
func TestEpochBumpFiresHooksOnNextRPC(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)

	var hookEpochs []uint64
	d.client.OnEpochChange(func(e uint64) { hookEpochs = append(hookEpochs, e) })

	if err := d.client.RegisterUser(ctx, "phil", "node-phil", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.client.RegisterService(ctx, "cal.phil", "phil", "node-phil", nil); err != nil {
		t.Fatal(err)
	}
	svc, err := d.client.ResolveService(ctx, "cal.phil")
	if err != nil || svc.Addr != "node-phil" {
		t.Fatalf("resolve: %+v, %v", svc, err)
	}

	// The service moves (re-registered elsewhere by another client),
	// and the control plane bumps the epoch to broadcast the change.
	other := NewShardedClient(d.net, "cp")
	if err := other.RegisterService(ctx, "cal.phil", "phil", "node-phil-2", nil); err != nil {
		t.Fatal(err)
	}
	if e := d.ctl.Bump(); e != 2 {
		t.Fatalf("Bump = %d", e)
	}
	if len(hookEpochs) != 1 || hookEpochs[0] != 1 {
		t.Fatalf("OnEpochChange hooks before the next RPC = %v, want [1] (the first table pull)", hookEpochs)
	}

	if _, err := d.client.LookupUser(ctx, "phil"); err != nil {
		t.Fatal(err)
	}
	if len(hookEpochs) != 2 || hookEpochs[1] != 2 || d.client.Epoch() != 2 {
		t.Fatalf("OnEpochChange hooks = %v (client epoch %d), want [1 2]", hookEpochs, d.client.Epoch())
	}
	svc, err = d.client.ResolveService(ctx, "cal.phil")
	if err != nil || svc.Addr != "node-phil-2" {
		t.Fatalf("resolve after the bump: %+v, %v", svc, err)
	}
}

func TestResolveBatchAcrossShards(t *testing.T) {
	d := newShardedDirectory(t, 4)
	ctx := ctxT(t)
	var names []string
	for i := 0; i < 12; i++ {
		u := fmt.Sprintf("u%02d", i)
		if err := d.client.RegisterUser(ctx, u, "node-"+u, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.client.RegisterService(ctx, "cal."+u, u, "node-"+u, nil); err != nil {
			t.Fatal(err)
		}
		names = append(names, "cal."+u)
	}
	before := d.net.Stats().Requests
	got, err := d.client.ResolveBatch(ctx, append(names, "cal.ghost"))
	if err != nil {
		t.Fatal(err)
	}
	rpcs := d.net.Stats().Requests - before
	if int(rpcs) > 4 {
		t.Fatalf("batch used %d RPCs for 4 shards", rpcs)
	}
	if len(got) != len(names) {
		t.Fatalf("resolved %d/%d names: %v", len(got), len(names), got)
	}
	for _, n := range names {
		if got[n].Addr != "node-"+ShardKey(n) {
			t.Fatalf("route for %s = %+v", n, got[n])
		}
	}
	if _, ok := got["cal.ghost"]; ok {
		t.Fatal("unknown name resolved")
	}
}
