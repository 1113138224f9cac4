package replication

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// checkpointBytes of shipped frames since the last follower
// checkpoint trigger the next one, so promotion replay and disk use
// stay bounded.
const checkpointBytes = 4 << 20

// PromoteFunc boots this follower's data directory as a full serving
// node and returns its bound address. holder is the lease identity
// the follower won promotion under — the booted node must renew with
// the same holder id (core.Config.LeaseHolder) or it will fence
// itself on its own lease.
type PromoteFunc func(ctx context.Context, holder string) (addr string, err error)

// FollowerConfig describes one warm standby.
type FollowerConfig struct {
	// User is the replicated identity this follower shadows (required).
	User string
	// Net is the deployment transport (required).
	Net transport.Network
	// Dir reads the lease and looks up the primary (required).
	Dir *directory.Client
	// DataDir is the follower's WAL directory (required). On promotion
	// it becomes the new primary's DataDir.
	DataDir string
	// ListenAddr is the address to serve Status on; it must be the
	// address the primary lists in Replicas. Empty lets the
	// transport pick.
	ListenAddr string
	// LeaseTTL is the lease duration used when promoting (required > 0).
	LeaseTTL time.Duration
	// Promote boots the promoted node (required).
	Promote PromoteFunc
	// Clock drives loops; nil = system clock.
	Clock clock.Clock
	// Metrics, when set, records shipping observations under LayerRepl.
	Metrics *metrics.Registry
	// PullEvery and LeaseCheckEvery, when > 0, run the pull and
	// lease-watch loops, timed through Clock. Tests leave them 0 and
	// drive PullOnce/CheckLease by hand.
	PullEvery       time.Duration
	LeaseCheckEvery time.Duration
	// Logf, when set, reports background-loop failures (lease-check and
	// promotion errors that would otherwise be invisible to operators).
	Logf func(format string, args ...any)
}

// Follower is a warm standby: it pulls WAL frames from the primary,
// applies them to its own durable copy, and promotes itself when the
// primary's lease expires and it is the best-caught-up candidate.
type Follower struct {
	cfg FollowerConfig
	clk clock.Clock
	d   *wal.Durable
	ln  transport.Listener

	mu             sync.Mutex
	shippedLSN     uint64 // primary tail as of last pull
	lagBytes       int64
	pulls          uint64
	snapshots      uint64
	badBatches     uint64
	checkpointedAt uint64 // d's BytesWritten at the last checkpoint
	promoted       bool
	closed         bool

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartFollower opens (or resumes) the follower's data directory and
// starts serving Status at cfg.ListenAddr. With PullEvery and
// LeaseCheckEvery set it drives itself; otherwise the caller drives
// PullOnce/CheckLease.
func StartFollower(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	switch {
	case cfg.User == "":
		return nil, fmt.Errorf("replication: FollowerConfig.User is required")
	case cfg.Net == nil:
		return nil, fmt.Errorf("replication: FollowerConfig.Net is required")
	case cfg.Dir == nil:
		return nil, fmt.Errorf("replication: FollowerConfig.Dir is required")
	case cfg.DataDir == "":
		return nil, fmt.Errorf("replication: FollowerConfig.DataDir is required")
	case cfg.LeaseTTL <= 0:
		return nil, fmt.Errorf("replication: FollowerConfig.LeaseTTL must be positive")
	case cfg.Promote == nil:
		return nil, fmt.Errorf("replication: FollowerConfig.Promote is required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	d, err := wal.Open(cfg.DataDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, clk: clk, d: d}

	lis := listener.New(cfg.User+"+follower", nil)
	lis.Register(ServiceFor(cfg.User), f.object())
	addr := cfg.ListenAddr
	if addr == "" {
		addr = ":0"
	}
	ln, err := cfg.Net.Listen(addr, lis)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("replication: follower listen: %w", err)
	}
	f.ln = ln

	if cfg.PullEvery > 0 || cfg.LeaseCheckEvery > 0 {
		loopCtx, cancel := context.WithCancel(context.Background())
		f.cancel = cancel
		if cfg.PullEvery > 0 {
			f.loop(loopCtx, cfg.PullEvery, func(c context.Context) { _ = f.PullOnce(c) })
		}
		if cfg.LeaseCheckEvery > 0 {
			f.loop(loopCtx, cfg.LeaseCheckEvery, func(c context.Context) {
				if _, err := f.CheckLease(c); err != nil {
					f.logf("replication: %s lease check: %v", f.cfg.User, err)
				}
			})
		}
	}
	return f, nil
}

// logf reports a background failure through cfg.Logf, if set.
func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// loop runs fn every interval until ctx is done, timing the waits
// through the follower's clock so a fake (or auto-advancing) clock
// compresses pull/lease cadences in simulation.
func (f *Follower) loop(ctx context.Context, every time.Duration, fn func(context.Context)) {
	f.wg.Add(1)
	clock.LoopGo(ctx, f.clk, every, func(time.Time) { fn(ctx) }, f.wg.Done)
}

// Addr returns the follower's bound address — the identity the
// primary should list in Replicas.
func (f *Follower) Addr() string { return f.ln.Addr() }

// Status snapshots the follower's replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Status{
		User:       f.cfg.User,
		Role:       RoleFollower,
		Holder:     f.holder(),
		ShippedLSN: f.shippedLSN,
		AppliedLSN: f.d.LastLSN(),
		LagBytes:   f.lagBytes,
		Pulls:      f.pulls,
		Snapshots:  f.snapshots,
		BadBatches: f.badBatches,
	}
}

// holder is the lease identity this follower promotes under.
func (f *Follower) holder() string { return f.ln.Addr() }

// object serves the follower side of repl.<user>: Status, which the
// other followers compare against in bestCandidate.
func (f *Follower) object() *listener.Object {
	obj := listener.NewObject()
	obj.Handle("Status", func(ctx context.Context, call *listener.Call) (any, error) {
		return f.Status(), nil
	})
	return obj
}

// PullOnce performs one shipping round: ask the primary for frames
// above the local applied LSN, append-and-apply them, and fall back
// to snapshot bootstrap when the primary has already trimmed that
// far. A verification failure (torn/corrupt/out-of-sequence batch)
// rejects the whole batch and leaves the applied LSN unchanged — the
// next round simply re-requests the same range.
func (f *Follower) PullOnce(ctx context.Context) error {
	primaryAddr, err := f.primaryAddr(ctx)
	if err != nil {
		return err
	}
	from := f.d.LastLSN() + 1
	start := time.Now()
	var reply pullReply
	err = call(ctx, f.cfg.Net, primaryAddr, f.cfg.User, "Pull",
		wire.Args{wire.Int64("from", int64(from))}, &reply)
	if err != nil {
		f.observe("pull", wire.CodeOf(err), time.Since(start))
		return err
	}
	f.mu.Lock()
	f.pulls++
	f.shippedLSN = reply.TailLSN
	f.mu.Unlock()

	if reply.Snapshot {
		return f.bootstrap(ctx, primaryAddr)
	}
	if len(reply.Frames) > 0 {
		if _, err := f.d.AppendFrames(reply.Frames); err != nil {
			if errors.Is(err, wal.ErrBadFrames) {
				f.mu.Lock()
				f.badBatches++
				f.mu.Unlock()
				f.observe("apply", wire.CodeBadArgs, time.Since(start))
			}
			return err
		}
	}
	f.mu.Lock()
	f.lagBytes = reply.Remaining
	f.mu.Unlock()
	f.observe("pull", wire.CodeOK, time.Since(start))
	return f.maybeCheckpoint()
}

// maybeCheckpoint checkpoints the follower once checkpointBytes of
// shipped frames have been written since the last checkpoint.
func (f *Follower) maybeCheckpoint() error {
	written := f.d.Stats().BytesWritten
	f.mu.Lock()
	due := written-f.checkpointedAt >= checkpointBytes
	if due {
		f.checkpointedAt = written
	}
	f.mu.Unlock()
	if !due {
		return nil
	}
	return f.d.Checkpoint()
}

// bootstrap replaces local state with a primary snapshot; the next
// pull resumes from its LSN.
func (f *Follower) bootstrap(ctx context.Context, primaryAddr string) error {
	start := time.Now()
	var reply snapshotReply
	if err := call(ctx, f.cfg.Net, primaryAddr, f.cfg.User, "Snapshot", wire.Args{}, &reply); err != nil {
		f.observe("snapshot", wire.CodeOf(err), time.Since(start))
		return err
	}
	if err := f.d.InstallSnapshot(reply.Data, reply.LSN); err != nil {
		f.observe("snapshot", wire.CodeInternal, time.Since(start))
		return err
	}
	f.mu.Lock()
	f.snapshots++
	f.mu.Unlock()
	f.observe("snapshot", wire.CodeOK, time.Since(start))
	return nil
}

// primaryAddr resolves the current primary's address.
func (f *Follower) primaryAddr(ctx context.Context) (string, error) {
	info, err := f.cfg.Dir.LookupUser(ctx, f.cfg.User)
	if err != nil {
		return "", fmt.Errorf("replication: resolve primary: %w", err)
	}
	return info.Addr, nil
}

// CheckLease reads the lease and promotes this follower if the lease
// is expired and no better-caught-up peer exists.
// Returns whether promotion ran.
func (f *Follower) CheckLease(ctx context.Context) (bool, error) {
	f.mu.Lock()
	if f.promoted || f.closed {
		f.mu.Unlock()
		return false, nil
	}
	f.mu.Unlock()

	lease, err := f.cfg.Dir.GetLease(ctx, f.cfg.User)
	if wire.CodeOf(err) == wire.CodeNoService {
		return false, nil // not replicated (yet); nothing to watch
	}
	if err != nil {
		return false, err
	}
	if !lease.Expired || !f.bestCandidate(ctx, lease.Replicas) {
		return false, nil
	}
	if err := f.PromoteNow(ctx); err != nil {
		return false, err
	}
	return true, nil
}

// bestCandidate compares this follower's applied LSN against the
// other replicas in the lease record. Highest applied LSN wins;
// ties break to the lexicographically lowest address; an unreachable
// peer is never better.
func (f *Follower) bestCandidate(ctx context.Context, replicas []string) bool {
	self := f.ln.Addr()
	mine := f.d.LastLSN()
	peers := append([]string(nil), replicas...)
	sort.Strings(peers)
	for _, addr := range peers {
		if addr == self {
			continue
		}
		st, err := peerStatus(ctx, f.cfg.Net, addr, f.cfg.User)
		if err != nil {
			continue // unreachable peer cannot outrank us
		}
		if st.AppliedLSN > mine || (st.AppliedLSN == mine && addr < self) {
			return false
		}
	}
	return true
}

// PromoteNow promotes this follower: win the expired lease (the
// single safety gate — losing the race aborts), drain any frames the
// fenced primary can still serve, seal the local WAL directory, and
// boot it as the new serving node. The directory is then re-pointed
// in one RPC so clients resolve the new primary immediately.
func (f *Follower) PromoteNow(ctx context.Context) error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil
	}
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("replication: follower closed")
	}
	f.mu.Unlock()

	holder := f.holder()
	start := time.Now()
	if _, err := f.cfg.Dir.RenewLease(ctx, f.cfg.User, holder, f.cfg.LeaseTTL, nil); err != nil {
		f.observe("promote", wire.CodeOf(err), time.Since(start))
		return fmt.Errorf("replication: promotion lease: %w", err)
	}

	// Best-effort final drain: the old primary (now fenced by our
	// lease) still serves Pull, so any acked frames it wrote reach us
	// before we seal the directory. Pull until a pull fails or brings
	// nothing (one pull carries at most pullMaxBytes): errors are
	// expected — it may simply be dead.
	for {
		before := f.d.LastLSN()
		if f.PullOnce(ctx) != nil || f.d.LastLSN() == before {
			break
		}
	}

	// Past this point promotion must run to completion: the lease-watch
	// loop invokes CheckLease with its own loop context, which f.cancel
	// below cancels — and a half-promoted follower (lease won, WAL
	// sealed) cannot resume following. Detach from any caller cancel.
	ctx = context.WithoutCancel(ctx)

	f.mu.Lock()
	f.promoted = true
	f.closed = true
	f.mu.Unlock()
	if err := f.d.Close(); err != nil {
		return fmt.Errorf("replication: seal follower wal: %w", err)
	}
	if f.cancel != nil {
		f.cancel()
	}
	_ = f.ln.Close()

	addr, err := f.cfg.Promote(ctx, holder)
	if err != nil {
		f.observe("promote", wire.CodeInternal, time.Since(start))
		// The WAL is sealed and the lease is won: this follower cannot
		// resume following. Say so loudly — restarting the process over
		// the same data directory is the recovery path.
		f.logf("replication: %s promotion failed after winning the lease; restart this follower: %v", f.cfg.User, err)
		return fmt.Errorf("replication: boot promoted node: %w", err)
	}
	// One RPC re-points the user record and every service it owns —
	// no waiting out directory TTLs (the promoted node's own
	// registrations cover its kernel services; this covers the rest).
	if err := f.cfg.Dir.Repoint(ctx, f.cfg.User, addr); err != nil {
		return fmt.Errorf("replication: repoint: %w", err)
	}
	f.observe("promote", wire.CodeOK, time.Since(start))
	return nil
}

// Close stops the loops and seals the follower's WAL directory.
// Idempotent; a promoted follower is already closed.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	if f.cancel != nil {
		f.cancel()
	}
	_ = f.ln.Close()
	err := f.d.Close()
	f.wg.Wait()
	return err
}

// observe records one replication observation when metrics are wired.
func (f *Follower) observe(method string, code wire.ErrCode, d time.Duration) {
	if f.cfg.Metrics != nil {
		f.cfg.Metrics.Observe(metrics.LayerRepl, "repl", method, code, d)
	}
}
