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
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/wal"
)

// checkpointEvery is how often a durable registry is snapshotted and
// its log trimmed: it bounds both the log a restart replays and the
// disk that heartbeat rows, logged like any other mutation, take up.
const checkpointEvery = time.Minute

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "address to bind")
	ttl := flag.Duration("ttl", directory.DefaultHeartbeatTTL, "heartbeat TTL before a silent device counts as offline")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); the registry and leases survive crashes")
	poolSize := flag.Int("conn-pool", 0, "TCP connections per peer (0 = min(4, GOMAXPROCS))")
	healthSweep := flag.Duration("health-sweep", 0, "run the replication health sweeper this often: expired leases whose primary is gone get the best follower promoted (0 = off)")
	flag.Parse()

	net := transport.NewTCP(transport.WithPoolSize(*poolSize))

	srv, dur := openServer(*dataDir, *ttl)
	ln, err := net.Listen(*addr, srv.Handler())
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	log.Printf("syddirectory: serving on %s (heartbeat TTL %v)", ln.Addr(), *ttl)
	startSweeper(net, directory.NewClient(net, ln.Addr()), *healthSweep)
	serve(dur, ln.Close)
}

// startSweeper runs the replication health sweeper against this
// directory when -health-sweep is set: the directory-side backstop that
// promotes a follower when a dead primary's followers cannot see the
// expiry themselves.
func startSweeper(net transport.Network, dir *directory.Client, every time.Duration) {
	if every <= 0 {
		return
	}
	sweeper, err := replication.NewSweeper(replication.SweeperConfig{
		Net: net, Dir: dir, Grace: every, Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("syddirectory: health sweeper: %v", err)
	}
	sweeper.Start(context.Background(), every)
	log.Printf("syddirectory: replication health sweeper every %v", every)
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
	clock.LoopGo(ctx, clock.System, checkpointEvery, func(time.Time) {
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
