package directory

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestLeaseAcquireRenewConflict(t *testing.T) {
	c, clk, _ := newDirectory(t)
	ctx := ctxT(t)

	// First acquisition creates the lease.
	info, err := c.RenewLease(ctx, "phil", "node-1", 30*time.Second, []string{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Holder != "node-1" || !info.Deadline.Equal(clk.Now().Add(30*time.Second)) {
		t.Fatalf("info = %+v", info)
	}

	// A different holder cannot take a live lease.
	_, err = c.RenewLease(ctx, "phil", "node-2", 30*time.Second, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("rival renew err = %v, want CodeConflict", err)
	}

	// The holder renews freely; nil replicas keeps the stored set.
	clk.Advance(20 * time.Second)
	if _, err := c.RenewLease(ctx, "phil", "node-1", 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetLease(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Replicas, []string{"r1", "r2"}) || got.Expired {
		t.Fatalf("lease after renew = %+v", got)
	}
}

func TestLeaseExpiryTakeover(t *testing.T) {
	c, clk, _ := newDirectory(t)
	ctx := ctxT(t)
	if _, err := c.RenewLease(ctx, "phil", "node-1", 10*time.Second, []string{"r1"}); err != nil {
		t.Fatal(err)
	}

	// Still live at the deadline boundary? Expiry is deadline-inclusive:
	// !deadline.After(now) — at exactly +10s the lease is expired.
	clk.Advance(10 * time.Second)
	got, err := c.GetLease(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Expired {
		t.Fatalf("lease at deadline = %+v, want expired", got)
	}

	// An expired lease is taken over; new holder's replicas replace.
	if _, err := c.RenewLease(ctx, "phil", "node-2", 10*time.Second, []string{"r2"}); err != nil {
		t.Fatal(err)
	}
	got, err = c.GetLease(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if got.Holder != "node-2" || !reflect.DeepEqual(got.Replicas, []string{"r2"}) {
		t.Fatalf("lease after takeover = %+v", got)
	}

	// The old holder is now the rival and gets fenced.
	_, err = c.RenewLease(ctx, "phil", "node-1", 10*time.Second, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("old holder renew err = %v, want CodeConflict", err)
	}
}

func TestLeaseGetUnknown(t *testing.T) {
	c, _, _ := newDirectory(t)
	_, err := c.GetLease(ctxT(t), "ghost")
	if wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

// TestLeaseList: leases on several users are kept apart; each reads
// back with its own holder and expires on its own deadline.
func TestLeaseList(t *testing.T) {
	c, clk, _ := newDirectory(t)
	ctx := ctxT(t)
	if _, err := c.RenewLease(ctx, "zoe", "n-z", 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RenewLease(ctx, "abe", "n-a", 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	abe, err := c.GetLease(ctx, "abe")
	if err != nil || abe.User != "abe" || abe.Holder != "n-a" || abe.Expired {
		t.Fatalf("abe's lease = %+v, %v; want live, held by n-a", abe, err)
	}
	zoe, err := c.GetLease(ctx, "zoe")
	if err != nil || zoe.User != "zoe" || zoe.Holder != "n-z" || !zoe.Expired {
		t.Fatalf("zoe's lease = %+v, %v; want expired, held by n-z", zoe, err)
	}
}

func TestRepointRebindsUserAndServices(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.RegisterUser(ctx, "phil", "node-old", 1); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"cal.phil", "links.phil"} {
		if err := c.RegisterService(ctx, svc, "phil", "node-old", nil); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.Repoint(ctx, "phil", "node-new"); err != nil {
		t.Fatal(err)
	}

	u, err := c.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if u.Addr != "node-new" || !u.Online {
		t.Fatalf("user after repoint = %+v", u)
	}
	for _, svc := range []string{"cal.phil", "links.phil"} {
		si, err := c.LookupService(ctx, svc)
		if err != nil {
			t.Fatal(err)
		}
		if si.Addr != "node-new" {
			t.Fatalf("%s addr = %q, want node-new", svc, si.Addr)
		}
	}

	if err := c.Repoint(ctx, "ghost", "nowhere"); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("repoint unknown user err = %v", err)
	}
}

// TestLeaseReleaseHandsOver: only the holder can release a lease, and a
// released lease is expired at once, so a successor takes it without
// waiting out the TTL.
func TestLeaseReleaseHandsOver(t *testing.T) {
	c, _, _ := newDirectory(t)
	ctx := ctxT(t)
	if err := c.ReleaseLease(ctx, "phil", "node-1"); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("release of no lease = %v, want no-service", err)
	}
	if _, err := c.RenewLease(ctx, "phil", "node-1", time.Hour, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseLease(ctx, "phil", "r1"); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("release by a non-holder = %v, want conflict", err)
	}
	if got, err := c.GetLease(ctx, "phil"); err != nil || got.Expired {
		t.Fatalf("lease after a refused release = %+v, %v", got, err)
	}
	if err := c.ReleaseLease(ctx, "phil", "node-1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetLease(ctx, "phil")
	if err != nil || !got.Expired || got.Holder != "node-1" || !reflect.DeepEqual(got.Replicas, []string{"r1"}) {
		t.Fatalf("released lease = %+v, %v; want expired, holder and replicas kept", got, err)
	}
	if _, err := c.RenewLease(ctx, "phil", "r1", time.Hour, nil); err != nil {
		t.Fatalf("successor after release: %v", err)
	}
	if err := c.ReleaseLease(ctx, "phil", "node-1"); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("release by the old holder = %v, want conflict", err)
	}
}
