// Command syddirectory runs a standalone SyDDirectory name server
// over real TCP — the deployment role the paper's "Name Server" plays
// (§5.2): user/service/group registry and replication leases for a SyD
// deployment.
//
//	syddirectory -addr 127.0.0.1:7000 [-data-dir /var/lib/syd/dir]
//
// With -data-dir, every registration and replication lease goes
// through a write-ahead log under that directory before its RPC is
// acknowledged, and startup recovers checkpoint + log tail from it: a
// directory restart — or crash — does not force every device to
// re-register, and does not forget a lease the directory has granted.
// The directory only arbitrates leases; it promotes no follower, since
// each follower's own lease watch does that (see sydnode).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "address to bind")
	ttl := flag.Duration("ttl", directory.DefaultHeartbeatTTL, "heartbeat TTL before a silent device counts as offline")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); the registry and leases survive crashes")
	flag.Parse()

	net := transport.NewTCP()

	srv, dur := openServer(*dataDir, *ttl)
	ln, err := net.Listen(*addr, srv.Handler())
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	log.Printf("syddirectory: serving on %s (heartbeat TTL %v)", ln.Addr(), *ttl)
	serve(dur, ln.Close)
}

// openServer builds the directory server: on the database recovered
// from dataDir when set (returned so serve can checkpoint and close
// it), in memory otherwise.
func openServer(dataDir string, ttl time.Duration) (*directory.Server, []*wal.Durable) {
	if dataDir == "" {
		return directory.NewServer(directory.WithTTL(ttl)), nil
	}
	dur, err := wal.Open(dataDir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	srv, err := directory.NewServerOn(dur.DB, directory.WithTTL(ttl))
	if err != nil {
		log.Fatalf("syddirectory: %s: %v", dataDir, err)
	}
	st := dur.Stats()
	log.Printf("syddirectory: registry recovered from %s (checkpoint LSN %d, %d log records replayed)",
		dataDir, st.CheckpointLSN, st.ReplayedRecords)
	return srv, []*wal.Durable{dur}
}

// serve checkpoints the durable registry, if any, on a timer until
// SIGINT/SIGTERM, then closes the listener and, after it, the log
// (with a final checkpoint, so a clean restart replays nothing).
func serve(durables []*wal.Durable, closeListener func() error) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	checkpointed := make(chan struct{})
	clock.LoopGo(ctx, clock.System, wal.CheckpointEvery, func(time.Time) {
		for _, d := range durables {
			if err := d.Checkpoint(); err != nil {
				log.Printf("syddirectory: checkpoint: %v", err)
			}
		}
	}, func() { close(checkpointed) })
	<-checkpointed
	log.Printf("syddirectory: shutting down")
	if err := closeListener(); err != nil {
		log.Printf("syddirectory: close: %v", err)
	}
	for _, d := range durables {
		if err := errors.Join(d.Checkpoint(), d.Close()); err != nil {
			log.Printf("syddirectory: close log: %v", err)
		}
	}
}
