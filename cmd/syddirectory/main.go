// Command syddirectory runs a standalone SyDDirectory name server
// over real TCP — the deployment role the paper's "Name Server" plays
// (§5.2): user/service/group registry and replication leases for a SyD
// deployment.
//
//	syddirectory -addr 127.0.0.1:7000 [-data-dir /var/lib/syd/dir]
//
// With -data-dir, every registration and replication lease goes through a write-ahead log under that directory before its
// RPC is acknowledged, and startup recovers checkpoint + log tail from
// it: a directory restart — or crash — does not force every device to
// re-register, and does not forget a lease the directory has granted.
//
// With -shards N (N > 1) the process runs a sharded directory: the
// control plane binds -addr and publishes the epoch-versioned shard
// map, and N shard servers bind -shard-addrs (comma-separated; when
// omitted, consecutive ports above -addr). Clients point -control-plane
// at -addr instead of -dir. Each shard logs its own slice of the
// registry under <data-dir>/shardK:
//
//	syddirectory -addr 127.0.0.1:7000 -shards 4 \
//	    -shard-addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 \
//	    -data-dir /var/lib/syd/dir
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/controlplane"
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
	addr := flag.String("addr", "127.0.0.1:7000", "address to bind (the control plane's address when -shards > 1)")
	ttl := flag.Duration("ttl", directory.DefaultHeartbeatTTL, "heartbeat TTL before a silent device counts as offline")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints; one subdirectory per shard); the registry and leases survive crashes")
	poolSize := flag.Int("conn-pool", 0, "TCP connections per peer (0 = min(4, GOMAXPROCS))")
	shards := flag.Int("shards", 1, "number of directory shards (1 = single unsharded server)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated shard bind addresses (defaults to consecutive ports above -addr)")
	healthSweep := flag.Duration("health-sweep", 0, "run the replication health sweeper this often: expired leases whose primary is gone get the best follower promoted (0 = off)")
	flag.Parse()

	net := transport.NewTCP(transport.WithPoolSize(*poolSize))

	if *shards <= 1 {
		// Single-server mode: exactly the pre-shard deployment.
		srv, dur := openServer(*dataDir, *ttl)
		ln, err := net.Listen(*addr, srv.Handler())
		if err != nil {
			log.Fatalf("syddirectory: %v", err)
		}
		log.Printf("syddirectory: serving on %s (heartbeat TTL %v)", ln.Addr(), *ttl)
		startSweeper(net, directory.NewClient(net, ln.Addr()), *healthSweep)
		serve(dur, ln.Close)
		return
	}

	binds, err := shardBinds(*addr, *shardAddrs, *shards)
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	shardList := make([]controlplane.Shard, *shards)
	servers := make([]*directory.Server, *shards)
	var durables []*wal.Durable
	var closers []func() error
	for i := 0; i < *shards; i++ {
		id := fmt.Sprintf("shard%d", i)
		dir := *dataDir
		if dir != "" {
			dir = filepath.Join(dir, id)
		}
		srv, dur := openServer(dir, *ttl, directory.WithShard(id))
		ln, err := net.Listen(binds[i], srv.Handler())
		if err != nil {
			log.Fatalf("syddirectory: shard %s: %v", id, err)
		}
		shardList[i] = controlplane.Shard{ID: id, Addr: ln.Addr()}
		servers[i] = srv
		durables = append(durables, dur...)
		closers = append(closers, ln.Close)
	}
	ctl := controlplane.NewController(shardList)
	for _, srv := range servers {
		ctl.Subscribe(srv.SetTable)
	}
	cln, err := net.Listen(*addr, ctl.Handler())
	if err != nil {
		log.Fatalf("syddirectory: control plane: %v", err)
	}
	closers = append(closers, cln.Close)
	startSweeper(net, directory.NewShardedClient(net, cln.Addr()), *healthSweep)
	log.Printf("syddirectory: control plane on %s, %d shards (heartbeat TTL %v)", cln.Addr(), *shards, *ttl)
	for _, s := range shardList {
		log.Printf("syddirectory: %s on %s", s.ID, s.Addr)
	}
	serve(durables, func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// startSweeper runs the replication health sweeper against this
// directory when -health-sweep is set: the control-plane backstop that
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

// openServer builds one directory server: on the database recovered
// from dataDir when set (returned so serve can checkpoint and close
// it), in memory otherwise.
func openServer(dataDir string, ttl time.Duration, opts ...directory.Option) (*directory.Server, []*wal.Durable) {
	opts = append(opts, directory.WithTTL(ttl))
	if dataDir == "" {
		return directory.NewServer(opts...), nil
	}
	dur, err := wal.Open(dataDir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	srv, err := directory.NewServerOn(dur.DB, opts...)
	if err != nil {
		log.Fatalf("syddirectory: %s: %v", dataDir, err)
	}
	st := dur.Stats()
	log.Printf("syddirectory: registry recovered from %s (checkpoint LSN %d, %d log records replayed)",
		dataDir, st.CheckpointLSN, st.ReplayedRecords)
	return srv, []*wal.Durable{dur}
}

// serve checkpoints the durable registries on a timer until
// SIGINT/SIGTERM, then closes the listeners and, after them, the logs
// (each with a final checkpoint, so a clean restart replays nothing).
func serve(durables []*wal.Durable, closeAll func() error) {
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
	if err := closeAll(); err != nil {
		log.Printf("syddirectory: close: %v", err)
	}
	for _, d := range durables {
		if err := errors.Join(d.Checkpoint(), d.Close()); err != nil {
			log.Printf("syddirectory: close log: %v", err)
		}
	}
}

// shardBinds resolves the shard bind addresses: the -shard-addrs list
// when given, otherwise the -addr host with consecutive ports above
// the control plane's.
func shardBinds(cpAddr, list string, n int) ([]string, error) {
	if list != "" {
		binds := strings.Split(list, ",")
		if len(binds) != n {
			return nil, fmt.Errorf("-shard-addrs has %d addresses, -shards is %d", len(binds), n)
		}
		for i := range binds {
			binds[i] = strings.TrimSpace(binds[i])
		}
		return binds, nil
	}
	host, portStr, err := stdnet.SplitHostPort(cpAddr)
	if err != nil {
		return nil, fmt.Errorf("cannot derive shard addresses from -addr %q: %v (use -shard-addrs)", cpAddr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return nil, fmt.Errorf("cannot derive shard addresses from -addr %q (use -shard-addrs)", cpAddr)
	}
	binds := make([]string, n)
	for i := 0; i < n; i++ {
		binds[i] = stdnet.JoinHostPort(host, strconv.Itoa(port+1+i))
	}
	return binds, nil
}
