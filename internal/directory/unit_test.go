package directory

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// unitLog counts the units a DB hands its logger, and their ops.
type unitLog struct{ units, ops atomic.Int64 }

func (l *unitLog) LogDDLTable(store.Schema) store.Ack   { return logged }
func (l *unitLog) LogDDLIndex(string, string) store.Ack { return logged }
func (l *unitLog) LogTx(ops []store.LoggedOp) store.Ack {
	l.units.Add(1)
	l.ops.Add(int64(len(ops)))
	return logged
}

func logged() error { return nil }

// newLoggedDirectory is newDirectory on a DB whose units log counts.
func newLoggedDirectory(t *testing.T) (*Client, *Server, *unitLog) {
	t.Helper()
	db := store.NewDB()
	log := &unitLog{}
	db.SetLogger(log)
	srv, err := NewServerOn(db)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.New(sim.Config{})
	ln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(net, ln.Addr()), srv, log
}

// TestCreateGroupIsOneUnit: a group with a bad member is refused whole,
// not left with the members before it.
func TestCreateGroupIsOneUnit(t *testing.T) {
	c, _, log := newLoggedDirectory(t)
	ctx := ctxT(t)
	if err := c.CreateGroup(ctx, "g", []string{"a", ""}); err == nil {
		t.Fatal("a group with an empty member name was created")
	}
	if got, err := c.GroupMembers(ctx, "g"); err != nil || len(got) != 0 {
		t.Fatalf("members after a refused create = %v, %v; want none", got, err)
	}
	if n := log.units.Load(); n != 0 {
		t.Fatalf("a refused create logged %d units", n)
	}
	if err := c.CreateGroup(ctx, "g", []string{"a", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	if units, ops := log.units.Load(), log.ops.Load(); units != 1 || ops != 2 {
		t.Fatalf("a create of two members logged %d units of %d ops, want 1 of 2", units, ops)
	}
}

// TestRepointIsOneUnit: a repoint moves the user and every service it
// owns in one unit, so a crash cannot leave the services on the old
// address.
func TestRepointIsOneUnit(t *testing.T) {
	c, _, log := newLoggedDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-old", 1); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"cal.phil", "links.phil", "sys.phil"} {
		if err := c.RegisterService(ctx, svc, "phil", "node-old", nil); err != nil {
			t.Fatal(err)
		}
	}
	units, ops := log.units.Load(), log.ops.Load()
	if err := c.Repoint(ctx, "phil", "node-new"); err != nil {
		t.Fatal(err)
	}
	if units, ops = log.units.Load()-units, log.ops.Load()-ops; units != 1 || ops != 4 {
		t.Fatalf("a repoint of a user with 3 services logged %d units of %d ops, want 1 of 4", units, ops)
	}
}

// TestConcurrentUpsertsAllSucceed: registrations of one new user, and of
// one new service, racing each other all succeed and leave one row: the
// loser of the insert re-runs its unit as an update.
func TestConcurrentUpsertsAllSucceed(t *testing.T) {
	c, srv, _ := newLoggedDirectory(t)
	ctx := ctxT(t)
	const n = 8
	errs := make(chan error, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs <- c.RegisterUser(ctx, "phil", fmt.Sprintf("node-%d", i), i)
		}(i)
		go func(i int) {
			defer wg.Done()
			errs <- c.RegisterService(ctx, "cal.phil", "phil", fmt.Sprintf("node-%d", i), nil)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent registration: %v", err)
		}
	}
	if u, s := srv.users.Count(), srv.services.Count(); u != 1 || s != 1 {
		t.Fatalf("%d users and %d services, want 1 of each", u, s)
	}
}
