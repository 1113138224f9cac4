package directory

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestOpensDataDirWrittenWithProxies opens a data dir written by a
// directory that still kept proxy bindings: its users table has a
// proxy column and it holds a proxies table. testdata/with-proxies has
// a checkpoint (phil, cal.phil, proxy p1, a lease on phil) and a log
// tail above it (andy, cal.andy, andy offline, group team).
func TestOpensDataDirWrittenWithProxies(t *testing.T) {
	dataDir := t.TempDir()
	src := filepath.Join("testdata", "with-proxies")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dataDir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dur, err := wal.Open(dataDir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dur.Close() })
	// An hour into the day-long lease the fixture granted.
	clk := clock.NewFake(time.Date(2003, 4, 22, 10, 0, 0, 0, time.UTC))
	srv, err := NewServerOn(dur.DB, WithClock(clk), WithTTL(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	net := sim.New(sim.Config{})
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	c := NewClient(net, "dir")
	ctx := ctxT(t)

	phil, err := c.LookupUser(ctx, "phil")
	if err != nil || phil.Addr != "node-phil" || phil.Priority != 2 || !phil.Online {
		t.Fatalf("phil = %+v, %v", phil, err)
	}
	andy, err := c.LookupUser(ctx, "andy")
	if err != nil || andy.Addr != "node-andy" || andy.Online {
		t.Fatalf("andy = %+v, %v; want node-andy, offline", andy, err)
	}
	for _, u := range []string{"phil", "andy"} {
		svc, err := c.ResolveService(ctx, "cal."+u)
		if err != nil || svc.Addr != "node-"+u || svc.Owner != u {
			t.Fatalf("cal.%s = %+v, %v", u, svc, err)
		}
	}
	if _, err := c.RenewLease(ctx, "phil", "rival", time.Hour, nil); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("rival renewal = %v, want conflict", err)
	}
	if err := c.RegisterUser(ctx, "suzy", "node-suzy", 0); err != nil {
		t.Fatal(err)
	}
	if suzy, err := c.LookupUser(ctx, "suzy"); err != nil || suzy.Addr != "node-suzy" || !suzy.Online {
		t.Fatalf("suzy = %+v, %v", suzy, err)
	}
}
