// Package core assembles the SyD kernel for one device: the listener,
// engine, event handler, and links manager of Fig. 3, wired to the
// shared directory and a transport.
//
// A Node is what the paper calls a "SyD device object host": it owns
// the device's embedded database, publishes its services (links.<user>
// is published automatically), and runs on its event handler's
// schedules the directory heartbeat and the periodic link-expiry sweep
// that the paper assigns to the event handler (§4.2 op 6).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/offline"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config describes a node to start.
type Config struct {
	// User is the device owner's SyD user id (required).
	User string
	// Priority is the user's scheduling priority (§6: "each user is
	// assigned a priority").
	Priority int
	// Net is the transport (TCP or sim) shared by the deployment.
	Net transport.Network
	// DirAddr is the directory server's address.
	DirAddr string
	// ListenAddr is the address to bind; empty lets the transport
	// pick ("sim-N" on the simulated network, a free port on TCP).
	ListenAddr string
	// Clock drives heartbeats and expiry sweeps; nil = system clock.
	Clock clock.Clock
	// Auth, when set, enables server-side credential checks for
	// objects that set RequireAuth.
	Auth *auth.Authenticator
	// HeartbeatEvery enables periodic directory heartbeats when > 0.
	HeartbeatEvery time.Duration
	// ExpireEvery enables the periodic link-expiry sweep when > 0.
	ExpireEvery time.Duration
	// RouteCacheTTL, when > 0, installs the engine's directory route
	// cache — the node's one cache of directory answers — so warm
	// invocations skip directory resolution entirely.
	RouteCacheTTL time.Duration
	// Metrics, when set, records per-method client and server latency
	// at the observe stage of the engine's and the listener's call
	// paths, and the links, WAL, replication and offline counters.
	Metrics *metrics.Registry
	// Tracer, when set, records distributed trace spans: one rpc.client
	// and one rpc.server span per call, from the same observe stages,
	// and the links negotiation machinery's and the WAL flusher's.
	Tracer *trace.Tracer
	// PublishIntrospection publishes the sys.<user> introspection
	// service (Services/Methods/Metrics) in the directory.
	PublishIntrospection bool
	// DataDir, when set, makes the device database durable: every
	// committed mutation goes through a write-ahead log under this
	// directory, and Start recovers checkpoint + log tail from it (the
	// durability the paper's prototype delegated to Oracle, §5.3).
	DataDir string
	// CheckpointEvery (with DataDir) snapshots the database and trims
	// the log periodically when > 0.
	CheckpointEvery time.Duration
	// WALSync is the log's fsync policy (group commit by default).
	WALSync wal.SyncPolicy
	// LeaseTTL, when > 0, turns on replication: the node acquires the
	// directory lease for User at boot (failing Start if a rival holds
	// it — the split-brain check), renews it on a LeaseTTL/3 cadence,
	// fences its own listener when the lease is invalid, and serves
	// WAL shipping under repl.<User>. Requires DataDir.
	LeaseTTL time.Duration
	// Replicas lists follower addresses reported to the directory on
	// every lease renewal — the promotion candidate set.
	Replicas []string
	// LeaseHolder overrides the lease identity (defaults to the bound
	// listen address). A promoted follower passes the holder id it won
	// the lease under so its renewals keep matching.
	LeaseHolder string
	// OfflineQueueCap, when > 0, enables disconnected operation with an
	// op queue of that capacity: an offline.Manager with a durable
	// bounded op queue, which refuses an op when full, the engine's
	// offline gate, which fast-fails remote calls in local mode and
	// feeds partition detection, the published sync.<User> service, and
	// heartbeat-driven reconnect sessions.
	OfflineQueueCap int
}

// Node is a running SyD device node.
type Node struct {
	User string

	DB       *store.DB
	Listener *listener.Listener
	Engine   *engine.Engine
	Events   *event.Handler
	Links    *links.Manager
	Dir      *directory.Client
	Clock    clock.Clock
	// Durable is the database's durability layer when Config.DataDir
	// was set (nil otherwise). Node.Close checkpoints and closes it.
	Durable *wal.Durable
	// Repl is the node's replication primary when Config.LeaseTTL was
	// set (nil otherwise).
	Repl *replication.Primary
	// Offline is the disconnected-operation manager when
	// Config.OfflineQueueCap was set (nil otherwise).
	Offline *offline.Manager
	// Tracer is the node's span recorder (nil when tracing is off).
	Tracer *trace.Tracer

	cfg Config
	ln  transport.Listener
}

// Start boots a node: creates its database and kernel modules, binds
// the listener, registers the user with the directory, and publishes
// the kernel services.
func Start(ctx context.Context, cfg Config) (*Node, error) {
	if cfg.User == "" {
		return nil, fmt.Errorf("core: Config.User is required")
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("core: Config.Net is required")
	}
	if cfg.LeaseTTL > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("core: replication (LeaseTTL) requires DataDir")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	tracer := cfg.Tracer

	// The device database: durable (recovered from DataDir) or plain
	// in-memory. Recovery runs before the kernel modules attach, so
	// links/calendar find their tables already populated and their
	// CreateTable calls become no-ops instead of re-logged DDL.
	var durable *wal.Durable
	db := store.NewDB()
	if cfg.DataDir != "" {
		var err error
		durable, err = wal.Open(cfg.DataDir, wal.Options{
			Sync:    cfg.WALSync,
			Metrics: cfg.Metrics,
			Tracer:  tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("core: open data dir: %w", err)
		}
		db = durable.DB
	}
	// closeDurable undoes the open on any failed boot path.
	closeDurable := func() {
		if durable != nil {
			_ = durable.Close()
		}
	}
	lis := listener.New(cfg.User, cfg.Auth, listener.WithMetrics(cfg.Metrics), listener.WithTracer(tracer))
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "node-" + cfg.User
	}
	ln, err := cfg.Net.Listen(addr, lis)
	if err != nil {
		// Fall back to an auto-assigned address (TCP: ephemeral
		// port; sim: unique name).
		ln, err = cfg.Net.Listen(":0", lis)
		if err != nil {
			closeDurable()
			return nil, fmt.Errorf("core: listen: %w", err)
		}
	}

	dir := directory.NewClient(cfg.Net, cfg.DirAddr, directory.WithCallerID(cfg.User))
	engOpts := []engine.Option{engine.WithMetrics(cfg.Metrics), engine.WithTracer(tracer)}
	if cfg.RouteCacheTTL > 0 {
		engOpts = append(engOpts, engine.WithDirCache(engine.NewDirCache(cfg.RouteCacheTTL)))
	}
	eng := engine.New(cfg.Net, dir, cfg.User, engOpts...)
	events := event.New(clk)

	// Disconnected operation: the manager is the engine's offline gate,
	// installed before any call goes out.
	var om *offline.Manager
	if cfg.OfflineQueueCap > 0 {
		om, err = offline.NewManager(offline.Config{
			User:     cfg.User,
			DB:       db,
			Engine:   eng,
			Dir:      dir,
			Clock:    clk,
			QueueCap: cfg.OfflineQueueCap,
			Metrics:  cfg.Metrics,
			Tracer:   tracer,
		})
		if err != nil {
			ln.Close()
			closeDurable()
			return nil, fmt.Errorf("core: offline mode: %w", err)
		}
		eng.SetGate(om.Admit, om.NoteResult)
	}

	lm, err := links.NewManager(cfg.User, db, eng, clk)
	if err != nil {
		ln.Close()
		closeDurable()
		return nil, err
	}
	if cfg.Metrics != nil {
		lm.SetMetrics(cfg.Metrics)
	}
	if tracer != nil {
		lm.SetTracer(tracer)
		if durable != nil {
			lm.SetLSNSource(durable.LastLSN)
		}
	}

	// Replication: acquire the lease BEFORE registering with the
	// directory. A restarted old primary whose follower was promoted
	// fails right here with a lease conflict — it never re-publishes
	// its address, so clients keep resolving the promoted node.
	var repl *replication.Primary
	if cfg.LeaseTTL > 0 {
		holder := cfg.LeaseHolder
		if holder == "" {
			holder = ln.Addr()
		}
		repl, err = replication.NewPrimary(replication.PrimaryConfig{
			User:     cfg.User,
			Durable:  durable,
			Dir:      dir,
			Holder:   holder,
			Replicas: cfg.Replicas,
			LeaseTTL: cfg.LeaseTTL,
			Clock:    clk,
			Metrics:  cfg.Metrics,
		})
		if err == nil {
			err = repl.Renew(ctx)
		}
		if err != nil {
			ln.Close()
			closeDurable()
			return nil, fmt.Errorf("core: replication: %w", err)
		}
		lis.SetFence(repl.Admit)
	}

	n := &Node{
		User:     cfg.User,
		DB:       db,
		Listener: lis,
		Engine:   eng,
		Events:   events,
		Links:    lm,
		Dir:      dir,
		Clock:    clk,
		Durable:  durable,
		Repl:     repl,
		Offline:  om,
		Tracer:   tracer,
		cfg:      cfg,
		ln:       ln,
	}

	if err := dir.RegisterUser(ctx, cfg.User, ln.Addr(), cfg.Priority); err != nil {
		ln.Close()
		closeDurable()
		return nil, fmt.Errorf("core: register user: %w", err)
	}
	// Publish the kernel services every node exposes.
	if err := n.RegisterService(ctx, links.ServiceFor(cfg.User), lm.Object()); err != nil {
		ln.Close()
		closeDurable()
		return nil, err
	}
	if om != nil {
		if err := n.RegisterService(ctx, offline.ServiceFor(cfg.User), om.SyncObject()); err != nil {
			ln.Close()
			closeDurable()
			return nil, err
		}
	}
	if cfg.PublishIntrospection {
		if err := n.RegisterService(ctx, IntrospectionService(cfg.User), listener.Introspection(lis, cfg.Metrics, tracer)); err != nil {
			ln.Close()
			closeDurable()
			return nil, err
		}
	}
	if repl != nil {
		if err := n.RegisterService(ctx, replication.ServiceFor(cfg.User), repl.Object()); err != nil {
			ln.Close()
			closeDurable()
			return nil, err
		}
		// Renew well inside the TTL so one dropped renewal does not
		// expire the lease.
		events.Every(cfg.LeaseTTL/3, func(time.Time) {
			rnCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = repl.Renew(rnCtx)
		})
	}

	if cfg.HeartbeatEvery > 0 {
		events.Every(cfg.HeartbeatEvery, func(time.Time) {
			hbCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// In local mode the heartbeat tick doubles as the reconnect
			// probe: each tick attempts the full sync session, which
			// no-ops fast if the directory is still unreachable.
			if om != nil && om.State() != offline.StateOnline {
				_ = om.TryReconnect(hbCtx)
				return
			}
			if err := dir.Heartbeat(hbCtx, cfg.User); err != nil && om != nil {
				om.NoteFailure()
			}
		})
	}
	if cfg.ExpireEvery > 0 {
		events.Every(cfg.ExpireEvery, func(now time.Time) {
			swCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = lm.ExpireSweep(swCtx, now)
			// Fault recovery rides the same schedule: pay what the outbox
			// still owes and resolve in-doubt participant marks.
			_ = lm.FaultSweep(swCtx, now)
		})
	}
	if durable != nil && cfg.CheckpointEvery > 0 {
		events.Every(cfg.CheckpointEvery, func(time.Time) {
			_ = durable.Checkpoint()
		})
	}
	return n, nil
}

// IntrospectionService names the sys.<user> introspection service.
func IntrospectionService(user string) string { return "sys." + user }

// Addr returns the node's bound network address.
func (n *Node) Addr() string { return n.ln.Addr() }

// RegisterService registers obj locally and publishes it globally in
// the directory.
func (n *Node) RegisterService(ctx context.Context, name string, obj *listener.Object) error {
	n.Listener.Register(name, obj)
	if err := n.Listener.PublishGlobal(ctx, n.Dir, name, n.ln.Addr()); err != nil {
		return fmt.Errorf("core: publish %s: %w", name, err)
	}
	return nil
}

// Close marks the node offline in the directory, stops periodic work,
// and closes the listener. The node's data survives in n.DB (the device
// can Start again); with durability on, Close takes a final checkpoint
// so restart skips log replay. A fenced primary leaves the directory
// record alone: the lease, and the user, belong to whoever took them
// over (replication.Primary.Release).
func (n *Node) Close(ctx context.Context) error {
	if n.Repl == nil || !n.Repl.Fenced() {
		_ = n.Dir.SetOffline(ctx, n.User, true)
	}
	n.Events.Close()
	err := n.ln.Close()
	if n.Durable != nil {
		err = errors.Join(err, n.Durable.Checkpoint(), n.Durable.Close())
	}
	return err
}
