package replication

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/internal/wire"
)

// pullMaxBytes bounds the frame bytes served per Pull.
const pullMaxBytes = 1 << 20

// PrimaryConfig describes the replication role of a serving node.
type PrimaryConfig struct {
	// User is the replicated identity (required).
	User string
	// Durable is the node's WAL-backed database (required — there is
	// nothing to ship without one).
	Durable *wal.Durable
	// Dir renews the lease (required).
	Dir *directory.Client
	// Holder identifies this node in the lease record; a promoted
	// follower passes the holder id it won the lease under so renewals
	// keep matching.
	Holder string
	// Replicas lists follower addresses, reported to the directory on
	// every renewal — the promotion candidate set.
	Replicas []string
	// LeaseTTL is the lease duration requested on each renewal
	// (required > 0).
	LeaseTTL time.Duration
	// Clock drives the local validity window; nil = system clock.
	Clock clock.Clock
	// Metrics, when set, records lease and shipping observations under
	// LayerRepl.
	Metrics *metrics.Registry
}

// Primary is the serving side of a replica set: it ships WAL frames
// to followers and keeps the lease alive. Create with NewPrimary,
// call Renew once synchronously at boot (acquisition doubles as the
// split-brain check), then keep renewing on a sub-TTL cadence.
type Primary struct {
	cfg PrimaryConfig
	clk clock.Clock

	mu        sync.Mutex
	goodUntil time.Time // local validity window; conservative vs directory deadline
	fenced    bool
	pulls     uint64
	snapshots uint64
}

// NewPrimary validates cfg and builds the primary-side state.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.User == "" {
		return nil, fmt.Errorf("replication: PrimaryConfig.User is required")
	}
	if cfg.Durable == nil {
		return nil, fmt.Errorf("replication: replication requires a durable (WAL-backed) database")
	}
	if cfg.Dir == nil {
		return nil, fmt.Errorf("replication: PrimaryConfig.Dir is required")
	}
	if cfg.LeaseTTL <= 0 {
		return nil, fmt.Errorf("replication: PrimaryConfig.LeaseTTL must be positive")
	}
	if cfg.Holder == "" {
		return nil, fmt.Errorf("replication: PrimaryConfig.Holder is required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	return &Primary{cfg: cfg, clk: clk}, nil
}

// ErrFenced reports that this node has lost the lease and must stop
// serving as primary.
var ErrFenced = errors.New("replication: lease lost; primary is fenced")

// Renew acquires or extends the lease. The local validity window is
// stamped from the clock reading taken BEFORE the RPC goes out: the
// directory computes its deadline later (receive time + TTL), so the
// local window always closes no later than the directory's — the
// fence trips first, never after a rival could have been promoted.
// A lease-held refusal means a rival holds the lease: the primary
// fences itself permanently.
func (p *Primary) Renew(ctx context.Context) error {
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return ErrFenced
	}
	p.mu.Unlock()

	sentAt := p.clk.Now()
	start := time.Now()
	_, err := p.cfg.Dir.RenewLease(ctx, p.cfg.User, p.cfg.Holder, p.cfg.LeaseTTL, p.cfg.Replicas)
	p.observe("lease-renew", wire.CodeOf(err), time.Since(start))
	if wire.ReasonOf(err) == wire.ReasonLeaseHeld {
		p.fence()
		return fmt.Errorf("%w: %v", ErrFenced, err)
	}
	if err != nil {
		// Transient (directory unreachable): the window simply keeps
		// running out; when it does, LeaseValid goes false on its own.
		return err
	}
	p.mu.Lock()
	p.goodUntil = sentAt.Add(p.cfg.LeaseTTL)
	p.mu.Unlock()
	return nil
}

// Release hands the lease over on purpose: it fences this primary, so
// that it serves nothing but replication traffic and renews no more,
// then ends its lease at the directory. A follower's PromoteNow can take
// the lease at once and drain the last frames from here. This is how a
// device hands its user to a stand-in and how the stand-in hands the
// user back (paper §5.2).
func (p *Primary) Release(ctx context.Context) error {
	p.fence()
	start := time.Now()
	err := p.cfg.Dir.ReleaseLease(ctx, p.cfg.User, p.cfg.Holder)
	p.observe("lease-release", wire.CodeOf(err), time.Since(start))
	return err
}

// fence marks the primary permanently invalid.
func (p *Primary) fence() {
	p.mu.Lock()
	p.fenced = true
	p.mu.Unlock()
}

// LeaseValid reports whether this node may serve as primary right
// now: not fenced, and inside the conservative local window.
func (p *Primary) LeaseValid() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.fenced && p.clk.Now().Before(p.goodUntil)
}

// Fenced reports whether the primary has lost its lease for good.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// Status snapshots the primary's replication state.
func (p *Primary) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	tail := p.cfg.Durable.LastLSN()
	return Status{
		User:           p.cfg.User,
		Role:           RolePrimary,
		Holder:         p.cfg.Holder,
		LeaseGoodUntil: p.goodUntil,
		LeaseValid:     !p.fenced && p.clk.Now().Before(p.goodUntil),
		Fenced:         p.fenced,
		ShippedLSN:     tail,
		AppliedLSN:     tail,
		Pulls:          p.pulls,
		Snapshots:      p.snapshots,
	}
}

// Object builds the repl.<user> device object: Pull and Snapshot for
// followers, Status for operators.
func (p *Primary) Object() *listener.Object {
	obj := listener.NewObject()
	obj.Handle("Pull", func(ctx context.Context, call *listener.Call) (any, error) {
		from := uint64(call.Args.Int64("from"))
		start := time.Now()
		batch, err := p.cfg.Durable.ReadFrames(from, pullMaxBytes)
		p.mu.Lock()
		p.pulls++
		p.mu.Unlock()
		if errors.Is(err, wal.ErrSnapshotNeeded) {
			p.observe("pull", wire.CodeOK, time.Since(start))
			return pullReply{Last: batch.Last, TailLSN: p.cfg.Durable.LastLSN(), Snapshot: true}, nil
		}
		if err != nil {
			p.observe("pull", wire.CodeInternal, time.Since(start))
			return nil, err
		}
		p.observe("pull", wire.CodeOK, time.Since(start))
		return pullReply{
			Frames:    batch.Frames,
			Last:      batch.Last,
			TailLSN:   p.cfg.Durable.LastLSN(),
			Remaining: batch.Remaining,
		}, nil
	})
	obj.Handle("Snapshot", func(ctx context.Context, call *listener.Call) (any, error) {
		start := time.Now()
		data, lsn, err := p.cfg.Durable.SnapshotAt()
		if err != nil {
			p.observe("snapshot", wire.CodeInternal, time.Since(start))
			return nil, err
		}
		p.mu.Lock()
		p.snapshots++
		p.mu.Unlock()
		p.observe("snapshot", wire.CodeOK, time.Since(start))
		return snapshotReply{Data: data, LSN: lsn}, nil
	})
	obj.Handle("Status", func(ctx context.Context, call *listener.Call) (any, error) {
		return p.Status(), nil
	})
	return obj
}

// Admit is the listener's fence: while the lease is invalid it turns
// away every request except replication and introspection traffic. An
// expired or fenced primary must not accept mutations a promoted rival
// will never see. Followers may still Pull (draining a fenced primary
// is how a promoter catches up to the last acked commit) and operators
// may still inspect sys.*.
func (p *Primary) Admit(service string) error {
	if strings.HasPrefix(service, ServicePrefix) || strings.HasPrefix(service, "sys.") || p.LeaseValid() {
		return nil
	}
	return &wire.RemoteError{
		Code: wire.CodeUnavailable,
		Msg:  fmt.Sprintf("replication: %s is not a valid primary (lease expired or lost)", p.cfg.User),
	}
}

// observe records one replication observation when metrics are wired.
func (p *Primary) observe(method string, code wire.ErrCode, d time.Duration) {
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.Observe(metrics.LayerRepl, "repl", method, code, d)
	}
}
