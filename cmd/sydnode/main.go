// Command sydnode runs one SyD device node over real TCP: the kernel
// (listener, engine, events, links) plus the calendar application —
// the role an iPAQ played in the paper's prototype.
//
//	sydnode -user phil -dir 127.0.0.1:7000 -addr 127.0.0.1:7101
//
// Notifications (the §5.1 meeting e-mails) are printed to stdout.
//
// # Replication
//
// With -data-dir and -lease-ttl the node becomes the primary of a
// replica set: it holds a directory lease and ships its write-ahead
// log to the followers named by -replicas. A follower is a second
// sydnode process started with -replica-of:
//
//	sydnode -user phil -data-dir /var/lib/syd/phil \
//	    -lease-ttl 10s -replicas 10.0.0.2:7201,10.0.0.3:7201
//	sydnode -replica-of phil -addr 10.0.0.2:7201 -data-dir /var/lib/syd/phil-r1 -lease-ttl 10s
//	sydnode -replica-of phil -addr 10.0.0.3:7201 -data-dir /var/lib/syd/phil-r2 -lease-ttl 10s
//
// Each follower reads the lease every quarter TTL, and that watch is
// the one thing that promotes: when the primary dies, the
// best-caught-up follower wins the expired lease, boots a full node
// over its replicated data directory, re-points the directory
// bindings, and keeps serving as phil.
//
// A -replica-of follower is also the paper's §5.2 proxy, the stand-in
// that serves phil while phil's device is away: the device hands over
// with replication.Primary.Release and the follower's PromoteNow, and
// takes phil back by reopening its own data dir as a follower of the
// stand-in and the same two calls the other way round.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/replication"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// serveDebug exposes the stock net/http/pprof handlers plus a
// plaintext dump of the node's retained traces (stitched flame trees,
// slowest first), a JSONL export for offline analysis, and the
// node's replication status as JSON.
func serveDebug(addr string, tracer *trace.Tracer, replStatus func() (replication.Status, bool)) {
	mux := http.DefaultServeMux // pprof registered itself here
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing is off (start with -trace-sample or -trace-slow)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range trace.Stitch(tracer.Snapshot()) {
			w.Write([]byte(t.Render()))
		}
	})
	mux.HandleFunc("/traces.jsonl", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing is off (start with -trace-sample or -trace-slow)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, tracer.Snapshot())
	})
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		st, ok := replStatus()
		if !ok {
			http.Error(w, "replication is off (start with -lease-ttl or -replica-of)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	log.Printf("sydnode: debug server (pprof, /traces, /replication) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("sydnode: debug server: %v", err)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseFlags turns the command line into the one node configuration:
// the primary boots from it, and a follower boots from the same one
// when it promotes, so a failover changes who serves and nothing about
// how. follower reports -replica-of, whose user cfg.User then names.
func parseFlags(args []string) (cfg core.Config, follower bool, debugAddr string, err error) {
	fs := flag.NewFlagSet("sydnode", flag.ExitOnError)
	user := fs.String("user", "", "SyD user id (required unless -replica-of)")
	dirAddr := fs.String("dir", "127.0.0.1:7000", "directory server address")
	addr := fs.String("addr", "127.0.0.1:0", "address to bind")
	priority := fs.Int("priority", 0, "user priority (§6)")
	dataDir := fs.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); the device database survives crashes")
	fsyncPolicy := fs.String("fsync", "group", "with -data-dir: fsync policy — group (batched group commit; a commit returns after the fsync covering it) or none")
	routeCacheTTL := fs.Duration("route-cache", 2*time.Second, "engine directory route cache TTL (0 disables)")
	traceSample := fs.Float64("trace-sample", 0, "head-sample this fraction of traces (0..1; slow and in-doubt traces are always kept when tracing is on)")
	traceSlow := fs.Duration("trace-slow", 0, "retain any trace containing a span at least this slow; enables tracing when set (0 disables slow retention)")
	fs.StringVar(&debugAddr, "debug-addr", "", "serve net/http/pprof, /traces and /replication on this address (e.g. 127.0.0.1:6060; empty disables)")
	replicaOf := fs.String("replica-of", "", "run as a WAL-shipping follower for this user (requires -data-dir and -lease-ttl; promotes to primary when the lease expires)")
	replicasFlag := fs.String("replicas", "", "comma-separated follower addresses advertised on every lease renewal (the promotion candidate set)")
	leaseTTL := fs.Duration("lease-ttl", 0, "replication lease TTL; with -data-dir the node serves as a lease-holding primary (0 = replication off)")
	offlineQueue := fs.Int("offline-queue", 0, "enable disconnected operation with an op queue of this capacity (writes queue locally while partitioned and sync on reconnect; a full queue refuses the write; 0 disables)")
	_ = fs.Parse(args) // ExitOnError

	sync, err := wal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		return cfg, false, "", err
	}
	cfg = core.Config{
		User:                 *user,
		Priority:             *priority,
		Net:                  transport.NewTCP(),
		DirAddr:              *dirAddr,
		ListenAddr:           *addr,
		HeartbeatEvery:       5 * time.Second,
		ExpireEvery:          30 * time.Second,
		RouteCacheTTL:        *routeCacheTTL,
		Metrics:              metrics.Default(),
		PublishIntrospection: true,
		DataDir:              *dataDir,
		WALSync:              sync,
		CheckpointEvery:      wal.CheckpointEvery,
		LeaseTTL:             *leaseTTL,
		Replicas:             splitList(*replicasFlag),
	}
	if follower = *replicaOf != ""; follower {
		cfg.User = *replicaOf
		if cfg.DataDir == "" {
			return cfg, false, "", fmt.Errorf("-replica-of requires -data-dir")
		}
		if cfg.LeaseTTL <= 0 {
			return cfg, false, "", fmt.Errorf("-replica-of requires -lease-ttl (must match the primary's)")
		}
	}
	if cfg.User == "" {
		return cfg, false, "", fmt.Errorf("-user is required")
	}
	cfg.OfflineQueueCap = *offlineQueue
	if *traceSample > 0 || *traceSlow > 0 {
		cfg.Tracer = trace.New(cfg.User,
			trace.WithSampleRate(*traceSample), trace.WithSlowThreshold(*traceSlow))
	}
	return cfg, follower, debugAddr, nil
}

func main() {
	cfg, follower, debugAddr, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatalf("sydnode: %v", err)
	}
	var replStatus atomic.Value // func() (replication.Status, bool)
	replStatus.Store(func() (replication.Status, bool) { return replication.Status{}, false })
	if debugAddr != "" {
		go serveDebug(debugAddr, cfg.Tracer, func() (replication.Status, bool) {
			return replStatus.Load().(func() (replication.Status, bool))()
		})
	}
	if follower {
		runFollower(cfg, &replStatus)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	node, err := bootNode(ctx, cfg, &replStatus)
	cancel()
	if err != nil {
		log.Fatalf("sydnode: %v", err)
	}
	role := ""
	if node.Repl != nil {
		role = ", replicated primary"
	}
	log.Printf("sydnode: %s serving on %s (directory %s%s)", cfg.User, node.Addr(), cfg.DirAddr, role)

	awaitSignal()
	log.Printf("sydnode: %s shutting down", cfg.User)
	closeNode(node)
}

// bootNode starts a serving node from cfg with the calendar application
// on it — the primary's boot and a promoted follower's alike.
func bootNode(ctx context.Context, cfg core.Config, replStatus *atomic.Value) (*core.Node, error) {
	node, err := core.Start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cal, err := calendar.New(ctx, node, calendar.WithNotifier(notify.NewWriter(os.Stdout)))
	if err != nil {
		closeNode(node)
		return nil, fmt.Errorf("calendar: %w", err)
	}
	if node.Offline != nil {
		cal.EnableSync(node.Offline)
	}
	if repl := node.Repl; repl != nil {
		replStatus.Store(func() (replication.Status, bool) { return repl.Status(), true })
	}
	return node, nil
}

// promote boots the serving node a follower becomes: the follower's own
// configuration, renewing the lease under the holder id it just won
// with. The follower's replication listener on ListenAddr is closed by
// the time this runs, so the promoted node serves at the address the
// operator already advertised in -replicas.
func promote(ctx context.Context, cfg core.Config, holder string, replStatus *atomic.Value) (*core.Node, error) {
	cfg.LeaseHolder = holder
	return bootNode(ctx, cfg, replStatus)
}

func closeNode(node *core.Node) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := node.Close(ctx); err != nil {
		log.Printf("sydnode: close: %v", err)
	}
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}

// runFollower runs the node as a warm standby: pull WAL frames, watch
// the lease, and on expiry promote into a full serving node over the
// replicated data directory.
func runFollower(cfg core.Config, replStatus *atomic.Value) {
	pullEvery := cfg.LeaseTTL / 10
	if pullEvery < 100*time.Millisecond {
		pullEvery = 100 * time.Millisecond
	}
	checkEvery := cfg.LeaseTTL / 4
	if checkEvery < 250*time.Millisecond {
		checkEvery = 250 * time.Millisecond
	}

	promoted := make(chan *core.Node, 1)
	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User:            cfg.User,
		Net:             cfg.Net,
		Dir:             directory.NewClient(cfg.Net, cfg.DirAddr),
		DataDir:         cfg.DataDir,
		ListenAddr:      cfg.ListenAddr,
		LeaseTTL:        cfg.LeaseTTL,
		Metrics:         cfg.Metrics,
		PullEvery:       pullEvery,
		LeaseCheckEvery: checkEvery,
		Logf:            log.Printf,
		Promote: func(ctx context.Context, holder string) (string, error) {
			node, err := promote(ctx, cfg, holder, replStatus)
			if err != nil {
				return "", err
			}
			promoted <- node
			log.Printf("sydnode: promoted to primary for %s, serving on %s", cfg.User, node.Addr())
			return node.Addr(), nil
		},
	})
	if err != nil {
		log.Fatalf("sydnode: follower: %v", err)
	}
	replStatus.Store(func() (replication.Status, bool) { return f.Status(), true })
	log.Printf("sydnode: follower for %s on %s (pull %v, lease check %v)", cfg.User, f.Addr(), pullEvery, checkEvery)

	awaitSignal()
	log.Printf("sydnode: follower for %s shutting down", cfg.User)
	if err := f.Close(); err != nil {
		log.Printf("sydnode: close follower: %v", err)
	}
	select {
	case node := <-promoted:
		closeNode(node)
	default:
	}
}
