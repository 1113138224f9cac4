package main

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/offline"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/wal"
)

// TestPromotedFollowerKeepsItsFlags: the node a follower promotes into
// boots from the follower's own command line. The promote callback used
// to assemble a second configuration by hand, which silently dropped
// -offline-queue, -fsync and -trace-* on failover.
func TestPromotedFollowerKeepsItsFlags(t *testing.T) {
	cfg, follower, _, err := parseFlags([]string{
		"-replica-of", "phil", "-dir", "dir", "-addr", "node-phil-r1",
		"-data-dir", t.TempDir(), "-lease-ttl", "10s", "-replicas", "node-phil-r2",
		"-offline-queue", "8",
		"-fsync", "none", "-trace-slow", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !follower || cfg.User != "phil" {
		t.Fatalf("follower = %v, user = %q", follower, cfg.User)
	}
	net := sim.New(sim.Config{})
	if _, err := net.Listen("dir", directory.NewServer().Handler()); err != nil {
		t.Fatal(err)
	}
	cfg.Net = net

	var replStatus atomic.Value
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := promote(ctx, cfg, "holder-r1", &replStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(node)

	if node.Offline == nil {
		t.Fatal("promoted follower started with -offline-queue 8 has no offline manager")
	}
	for i := 1; i <= 9; i++ {
		_, err := node.Offline.Queue().Enqueue(ctx, offline.Op{ID: strconv.Itoa(i), Kind: "schedule", Payload: []byte("{}"), Queued: time.Now()})
		if (err != nil) != (i == 9) {
			t.Fatalf("op %d into an offline queue of 8: %v", i, err)
		}
	}
	if _, err := node.Dir.LookupService(ctx, offline.ServiceFor("phil")); err != nil {
		t.Fatalf("sync service not published: %v", err)
	}
	if node.Tracer == nil || node.Tracer != cfg.Tracer {
		t.Fatal("-trace-slow lost on promotion")
	}
	if node.Durable == nil || cfg.WALSync != wal.SyncNone || cfg.CheckpointEvery != wal.CheckpointEvery {
		t.Fatalf("durability flags lost: sync %v, checkpoint every %v", cfg.WALSync, cfg.CheckpointEvery)
	}
	st, ok := replStatus.Load().(func() (replication.Status, bool))()
	if !ok || st.Role != replication.RolePrimary || st.Holder != "holder-r1" || !st.LeaseValid {
		t.Fatalf("promoted node's replication status = %+v, %v", st, ok)
	}
	lease, err := node.Dir.GetLease(ctx, "phil")
	if err != nil || lease.Holder != "holder-r1" || len(lease.Replicas) != 1 {
		t.Fatalf("lease after promotion = %+v, %v", lease, err)
	}
}
