package directory

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/wire"
)

// newDirectory spins up a directory server on a fresh sim network and
// returns a client plus the fake clock driving liveness.
func newDirectory(t *testing.T) (*Client, *clock.Fake, *sim.Net) {
	t.Helper()
	fake := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	net := sim.New(sim.Config{})
	srv := NewServer(WithClock(fake), WithTTL(10*time.Second))
	ln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(net, ln.Addr()), fake, net
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRegisterAndLookupUser(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-phil", 5); err != nil {
		t.Fatal(err)
	}
	info, err := c.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "phil" || info.Addr != "node-phil" || info.Priority != 5 || !info.Online {
		t.Fatalf("info = %+v", info)
	}
}

func TestLookupUnknownUser(t *testing.T) {
	c, _, _ := newDirectory(t)
	_, err := c.LookupUser(ctxT(t), "ghost")
	if wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterUserValidation(t *testing.T) {
	c, _, _ := newDirectory(t)
	if err := c.RegisterUser(ctxT(t), "", "addr", 0); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := c.RegisterUser(ctxT(t), "x", "", 0); err == nil {
		t.Fatal("empty addr accepted")
	}
}

func TestHeartbeatKeepsUserOnline(t *testing.T) {
	c, fake, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-phil", 0); err != nil {
		t.Fatal(err)
	}
	fake.Advance(8 * time.Second)
	if err := c.Heartbeat(ctx, "phil"); err != nil {
		t.Fatal(err)
	}
	fake.Advance(8 * time.Second)
	info, err := c.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Online {
		t.Fatal("heartbeated user went offline")
	}
	fake.Advance(11 * time.Second)
	info, err = c.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if info.Online {
		t.Fatal("stale user still online after TTL")
	}
}

func TestHeartbeatUnknownUser(t *testing.T) {
	c, _, _ := newDirectory(t)
	if err := c.Heartbeat(ctxT(t), "ghost"); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

// TestSetOfflineUnknownUser: a device that reconnects to a directory
// that does not know it learns so at once.
func TestSetOfflineUnknownUser(t *testing.T) {
	c, _, _ := newDirectory(t)
	if err := c.SetOffline(ctxT(t), "ghost", false); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

func TestSetOfflineExplicit(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-phil", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetOffline(ctx, "phil", true); err != nil {
		t.Fatal(err)
	}
	info, _ := c.LookupUser(ctx, "phil")
	if info.Online {
		t.Fatal("explicitly offline user reported online")
	}
	if err := c.SetOffline(ctx, "phil", false); err != nil {
		t.Fatal(err)
	}
	info, _ = c.LookupUser(ctx, "phil")
	if !info.Online {
		t.Fatal("user did not come back online")
	}
}

func TestReRegistrationMovesUser(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-phil", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetOffline(ctx, "phil", true); err != nil {
		t.Fatal(err)
	}
	// Device moves to a new address (mobility) and re-registers.
	if err := c.RegisterUser(ctx, "phil", "node-phil-2", 3); err != nil {
		t.Fatal(err)
	}
	after, _ := c.LookupUser(ctx, "phil")
	if after.Addr != "node-phil-2" || after.Priority != 3 || !after.Online {
		t.Fatalf("after = %+v", after)
	}
}

func TestRegisterAndLookupService(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-phil", 0); err != nil {
		t.Fatal(err)
	}
	err := c.RegisterService(ctx, "cal.phil", "phil", "node-phil", []string{"GetFreeSlots", "ReserveSlot"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.LookupService(ctx, "cal.phil")
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != "node-phil" || info.Owner != "phil" {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Methods, []string{"GetFreeSlots", "ReserveSlot"}) {
		t.Fatalf("methods = %v", info.Methods)
	}
}

func TestServicesOf(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	for _, svc := range []string{"cal.phil", "todo.phil"} {
		if err := c.RegisterService(ctx, svc, "phil", "node-phil", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterService(ctx, "cal.andy", "andy", "node-andy", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.ServicesOf(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"cal.phil", "todo.phil"}) {
		t.Fatalf("services = %v", got)
	}
}

func TestGroups(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.CreateGroup(ctx, "biology", []string{"carol", "alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GroupMembers(ctx, "biology")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"alice", "bob", "carol"}) {
		t.Fatalf("members = %v", got)
	}
	// Creating it again with a member it has and a new one adds the new.
	if err := c.CreateGroup(ctx, "biology", []string{"alice", "dave"}); err != nil {
		t.Fatal(err)
	}
	got, _ = c.GroupMembers(ctx, "biology")
	if !reflect.DeepEqual(got, []string{"alice", "bob", "carol", "dave"}) {
		t.Fatalf("members = %v", got)
	}
	empty, err := c.GroupMembers(ctx, "physics")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("unknown group members = %v", empty)
	}
}

func TestListUsersSorted(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	for _, u := range []string{"suzy", "phil", "andy"} {
		if err := c.RegisterUser(ctx, u, "node-"+u, 0); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.ListUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, i := range infos {
		ids = append(ids, i.ID)
	}
	if !reflect.DeepEqual(ids, []string{"andy", "phil", "suzy"}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestResolveBatch(t *testing.T) {
	c, _, net := newDirectory(t)
	ctx := ctxT(t)
	var names []string
	for _, u := range []string{"phil", "andy", "suzy"} {
		if err := c.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"A"}); err != nil {
			t.Fatal(err)
		}
		names = append(names, "cal."+u)
	}
	before := net.Stats().Requests
	got, err := c.ResolveBatch(ctx, append(names, "cal.ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if rpcs := net.Stats().Requests - before; rpcs != 1 {
		t.Fatalf("batch used %d RPCs, want 1", rpcs)
	}
	if len(got) != len(names) {
		t.Fatalf("resolved %d/%d names: %v", len(got), len(names), got)
	}
	for _, n := range names {
		if info := got[n]; info.Addr != "node-"+n[len("cal."):] || info.Methods != nil {
			t.Fatalf("route for %s = %+v, want its address and no methods", n, info)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	c, _, _ := newDirectory(t)
	err := c.call(ctxT(t), "Bogus", wire.Args{}, nil)
	if wire.CodeOf(err) != wire.CodeNoMethod {
		t.Fatalf("err = %v", err)
	}
}

func TestClientErrorsOnUnreachableDirectory(t *testing.T) {
	net := sim.New(sim.Config{})
	c := NewClient(net, "nowhere")
	_, err := c.LookupUser(ctxT(t), "phil")
	if err == nil {
		t.Fatal("expected error")
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v", err, err)
	}
}
