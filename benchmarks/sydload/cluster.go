package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// traceRing is each node's span ring capacity in a traced run. The ring
// overwrites silently when full, so the traced run checks afterwards
// that every op's root span is still there.
const traceRing = 1 << 20

// member is one device: a node, its calendar, and the node's own TCP
// network, so every RPC between two members crosses a loopback socket.
type member struct {
	user string
	node *core.Node
	cal  *calendar.Calendar
	net  *transport.TCP
	// commits counts store commit units in a traced run (nil otherwise).
	commits *commitCounter
}

// cluster is the system under test: one directory and its members, all
// in this process.
type cluster struct {
	dirNet  *transport.TCP
	dirLn   transport.Listener
	members []*member
	byUser  map[string]*member
	// wire counts frames and bytes on every socket of the cluster.
	wire *metrics.WireStats

	// Set in a traced run only.
	collector *trace.Collector
	registry  *metrics.Registry
	probe     *wireProbe
}

// bootSpec says what to boot.
type bootSpec struct {
	users   []string
	dataDir string // non-empty: every node durable under dataDir/<user>
	traced  bool
}

// boot starts the directory and one node+calendar per user. Route cache
// on, wire codec at the deployment default (json); no heartbeat or expiry
// sweeps, which would land as bursts in some segments and not in others.
func boot(ctx context.Context, spec bootSpec) (*cluster, error) {
	c := &cluster{byUser: map[string]*member{}, wire: &metrics.WireStats{}}
	if spec.traced {
		c.collector = trace.NewCollector()
		c.registry = metrics.NewRegistry()
		c.probe = &wireProbe{}
	}
	c.dirNet = transport.NewTCP(transport.WithWireStats(c.wire))
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	ln, err := c.dirNet.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		return nil, fmt.Errorf("directory listen: %w", err)
	}
	c.dirLn = ln
	for _, u := range spec.users {
		m, err := c.startMember(ctx, u, spec)
		if err != nil {
			c.close(ctx)
			return nil, err
		}
		c.members = append(c.members, m)
		c.byUser[u] = m
	}
	return c, nil
}

func (c *cluster) startMember(ctx context.Context, user string, spec bootSpec) (*member, error) {
	m := &member{user: user, net: transport.NewTCP(transport.WithWireStats(c.wire))}
	cfg := core.Config{
		User:          user,
		DirAddr:       c.dirLn.Addr(),
		ListenAddr:    "127.0.0.1:0",
		RouteCacheTTL: time.Hour,
	}
	cfg.Net = m.net
	if spec.dataDir != "" {
		cfg.DataDir = filepath.Join(spec.dataDir, user)
		// The group-commit write path with the device flush left out:
		// SyncNone differs from the default SyncGroup by the fsync call and
		// nothing else. On this box's shared disk an fsync is 2 ms that
		// swings by half for minutes at a time, which is the disk's time
		// and not the program's, and buries the rest of the run.
		cfg.WALSync = wal.SyncNone
	}
	if spec.traced {
		cfg.Net = &probedNet{Network: m.net, probe: c.probe}
		cfg.Tracer = c.collector.Tracer(user, trace.WithSampleRate(1), trace.WithCapacity(traceRing))
		cfg.Metrics = c.registry
	}
	node, err := core.Start(ctx, cfg)
	if err != nil {
		_ = m.net.Close()
		return nil, fmt.Errorf("start node %s: %w", user, err)
	}
	m.node = node
	if m.cal, err = calendar.New(ctx, node); err != nil {
		_ = node.Close(ctx)
		_ = m.net.Close()
		return nil, fmt.Errorf("calendar %s: %w", user, err)
	}
	if spec.traced {
		// The store has no counters of its own, so count commit units at
		// its logger hook, in front of the WAL when there is one.
		m.commits = &commitCounter{}
		if node.Durable != nil {
			m.commits.next = node.Durable
		}
		node.DB.SetLogger(m.commits)
	}
	return m, nil
}

// close stops every node and socket and waits for their goroutines.
func (c *cluster) close(ctx context.Context) {
	for _, m := range c.members {
		_ = m.node.Close(ctx)
		_ = m.net.Close()
	}
	if c.dirLn != nil {
		_ = c.dirLn.Close()
	}
	_ = c.dirNet.Close()
}

// commitCounter is a store.MutationLogger that counts commit units and
// row operations, then hands them to the real logger if there is one.
type commitCounter struct {
	next  store.MutationLogger
	units atomic.Int64
	rows  atomic.Int64
}

func (l *commitCounter) LogDDLTable(s store.Schema) store.Ack {
	if l.next != nil {
		return l.next.LogDDLTable(s)
	}
	return nil
}

func (l *commitCounter) LogDDLIndex(table, col string) store.Ack {
	if l.next != nil {
		return l.next.LogDDLIndex(table, col)
	}
	return nil
}

func (l *commitCounter) LogTx(ops []store.LoggedOp) store.Ack {
	l.units.Add(1)
	l.rows.Add(int64(len(ops)))
	if l.next != nil {
		return l.next.LogTx(ops)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
