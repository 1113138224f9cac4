package directory

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// life is one run of a directory server on the write-ahead log under a
// data dir: what `syddirectory -data-dir` is between a start and the
// next stop.
type life struct {
	srv *Server
	dur *wal.Durable
}

// startLife recovers a server from dataDir (empty on the first life).
func startLife(t *testing.T, dataDir string, opts ...Option) *life {
	t.Helper()
	dur, err := wal.Open(dataDir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	// Stops the flusher of a life the test ended by kill, too; closing
	// twice is harmless.
	t.Cleanup(func() { _ = dur.Close() })
	srv, err := NewServerOn(dur.DB, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &life{srv: srv, dur: dur}
}

// end stops the life. A clean end closes the log with its final
// checkpoint, as SIGTERM does. A kill walks away from it as SIGKILL
// does: no Close, no checkpoint, and the next life finds only what the
// log had acknowledged.
func (l *life) end(t *testing.T, clean bool) {
	t.Helper()
	if !clean {
		return
	}
	if err := l.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.dur.Close(); err != nil {
		t.Fatal(err)
	}
}

// endings names the two ways a life ends, for subtests.
var endings = []struct {
	name  string
	clean bool
}{{"sigterm", true}, {"sigkill", false}}

// populate registers, through c, one of everything a restart must
// keep: n users with distinct priorities, a service each, one group of
// all of them, an offline flag on u03 and a lease on every even user.
func populate(t *testing.T, c *Client, n int) {
	t.Helper()
	ctx := ctxT(t)
	var members []string
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%02d", i)
		if err := c.RegisterUser(ctx, u, "node-"+u, i); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"A", "B"}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := c.RenewLease(ctx, u, "holder-"+u, time.Hour, []string{"r1-" + u, "r2-" + u}); err != nil {
				t.Fatal(err)
			}
		}
		members = append(members, u)
	}
	if err := c.CreateGroup(ctx, "team", members); err != nil {
		t.Fatal(err)
	}
	if err := c.SetOffline(ctx, "u03", true); err != nil {
		t.Fatal(err)
	}
}

// verifyPopulated checks, through a client of the next life, that
// everything populate registered is still there — and that the
// recovered registry takes writes.
func verifyPopulated(t *testing.T, c *Client, n int) {
	t.Helper()
	ctx := ctxT(t)
	users, err := c.ListUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != n {
		t.Fatalf("recovered %d users, want %d", len(users), n)
	}
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%02d", i)
		info, err := c.LookupUser(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if info.Addr != "node-"+u || info.Priority != i {
			t.Fatalf("recovered %s = %+v", u, info)
		}
		if info.Online == (u == "u03") {
			t.Fatalf("offline flag of %s lost: %+v", u, info)
		}
		svc, err := c.LookupService(ctx, "cal."+u)
		if err != nil {
			t.Fatal(err)
		}
		if len(svc.Methods) != 2 || svc.Addr != "node-"+u || svc.Owner != u {
			t.Fatalf("recovered service cal.%s = %+v", u, svc)
		}
		// The owner index is rebuilt with the table.
		if owned, err := c.ServicesOf(ctx, u); err != nil || !reflect.DeepEqual(owned, []string{"cal." + u}) {
			t.Fatalf("ServicesOf(%s) = %v, %v", u, owned, err)
		}
		lease, err := c.GetLease(ctx, u)
		if i%2 != 0 {
			if wire.CodeOf(err) != wire.CodeNoService {
				t.Fatalf("lease on %s = %+v, %v; none was granted", u, lease, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if lease.Holder != "holder-"+u || lease.Expired || !reflect.DeepEqual(lease.Replicas, []string{"r1-" + u, "r2-" + u}) {
			t.Fatalf("recovered lease on %s = %+v", u, lease)
		}
	}
	members, err := c.GroupMembers(ctx, "team")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != n {
		t.Fatalf("recovered group has %d members, want %d", len(members), n)
	}
	if err := c.RegisterUser(ctx, "suzy", "node-suzy", 0); err != nil {
		t.Fatalf("recovered registry refuses writes: %v", err)
	}
}

func TestRegistrySurvivesRestart(t *testing.T) {
	for _, e := range endings {
		clean := e.clean
		t.Run(e.name, func(t *testing.T) {
			fake := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
			net := sim.New(sim.Config{})
			dataDir := t.TempDir()
			opts := []Option{WithClock(fake), WithTTL(10 * time.Second)}

			first := startLife(t, dataDir, opts...)
			ln, err := net.Listen("dir", first.srv.Handler())
			if err != nil {
				t.Fatal(err)
			}
			populate(t, NewClient(net, ln.Addr()), 4)
			ln.Close()
			first.end(t, clean)

			second := startLife(t, dataDir, opts...)
			if replayed := second.dur.Stats().ReplayedRecords; clean == (replayed > 0) {
				t.Fatalf("clean end = %v but the next life replayed %d log records", clean, replayed)
			}
			ln2, err := net.Listen("dir2", second.srv.Handler())
			if err != nil {
				t.Fatal(err)
			}
			verifyPopulated(t, NewClient(net, ln2.Addr()), 4)
		})
	}
}

// TestLeaseFencesRivalAcrossCrash is the split-brain case a directory
// that persists by periodic snapshot gets wrong: the lease is granted,
// the directory dies before anything but the log has it, and the next
// life must still refuse the rival.
func TestLeaseFencesRivalAcrossCrash(t *testing.T) {
	ctx := context.Background()
	fake := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	dataDir := t.TempDir()

	first := startLife(t, dataDir, WithClock(fake))
	if _, err := first.srv.renewLease(ctx, "phil", "node-1", 30*time.Second, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	first.end(t, false)

	second := startLife(t, dataDir, WithClock(fake))
	fake.Advance(20 * time.Second)
	if _, err := second.srv.renewLease(ctx, "phil", "node-2", 30*time.Second, nil); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("rival renew after crash: err = %v, want CodeConflict", err)
	}
	got, err := second.srv.renewLease(ctx, "phil", "node-1", 30*time.Second, nil)
	if err != nil {
		t.Fatalf("holder renew after crash: %v", err)
	}
	if !got.Deadline.Equal(fake.Now().Add(30 * time.Second)) {
		t.Fatalf("renewed lease = %+v", got)
	}
	// Only once the renewed lease runs out does the rival get in.
	fake.Advance(30 * time.Second)
	if _, err := second.srv.renewLease(ctx, "phil", "node-2", 30*time.Second, nil); err != nil {
		t.Fatalf("takeover of the expired lease: %v", err)
	}
}

// TestRecoveredRegistryGainsMissingTable: a data dir written before a
// table existed (the leases table arrived with replication) recovers
// without it; the server creates it, and logs that, so the life after
// has the table and its rows.
func TestRecoveredRegistryGainsMissingTable(t *testing.T) {
	ctx := context.Background()
	fake := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	dataDir := t.TempDir()

	old, err := wal.Open(dataDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := NewServer()
	for _, tab := range []*store.Table{full.users, full.services, full.members} {
		if _, err := old.DB.CreateTable(tab.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	second := startLife(t, dataDir, WithClock(fake))
	if _, err := second.srv.renewLease(ctx, "zoe", "n", time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	second.end(t, false)

	third := startLife(t, dataDir, WithClock(fake))
	if got, err := third.srv.getLease("zoe"); err != nil || got.Holder != "n" {
		t.Fatalf("lease in the table created after recovery = %+v, %v", got, err)
	}
}
