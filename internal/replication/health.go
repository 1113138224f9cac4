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
	"repro/internal/transport"
	"repro/internal/wire"
)

// SweeperConfig describes the directory-side health sweep.
type SweeperConfig struct {
	// Net is the deployment transport (required).
	Net transport.Network
	// Dir lists leases and resolves primaries (required).
	Dir *directory.Client
	// Clock times the grace window; nil = system clock.
	Clock clock.Clock
	// Grace delays remediation past lease expiry, giving a slow-but-
	// alive primary one more renewal window before the sweeper forces
	// a promotion (0 = remediate immediately).
	Grace time.Duration
	// Logf, when set, reports sweep failures from the Start loop (a
	// dead replica set that cannot be remediated is operator news).
	Logf func(format string, args ...any)
}

// Sweeper watches every replication lease from the control plane
// side: when a lease has expired and the recorded primary is
// unreachable, it picks the best-caught-up follower and tells it to
// promote. Followers also self-promote via their own lease watch —
// the sweeper is the backstop for follower sets whose watchers died
// with the primary's network segment, and the lease check-and-set
// makes the two paths race-safe.
type Sweeper struct {
	cfg SweeperConfig
	clk clock.Clock

	mu        sync.Mutex
	expiredAt map[string]time.Time // user → first expiry observation
}

// NewSweeper validates cfg and builds a sweeper.
func NewSweeper(cfg SweeperConfig) (*Sweeper, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("replication: SweeperConfig.Net is required")
	}
	if cfg.Dir == nil {
		return nil, fmt.Errorf("replication: SweeperConfig.Dir is required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	return &Sweeper{cfg: cfg, clk: clk, expiredAt: make(map[string]time.Time)}, nil
}

// Sweep makes one pass over every lease, remediating each expired one
// whose primary is truly gone. Per-lease failures are joined, not
// fatal — one dead replica set must not shadow another's recovery.
func (s *Sweeper) Sweep(ctx context.Context) error {
	leases, err := s.cfg.Dir.ListLeases(ctx)
	if err != nil {
		return fmt.Errorf("replication: sweep: %w", err)
	}
	var errs []error
	now := s.clk.Now()
	for _, lease := range leases {
		if !lease.Expired {
			s.mu.Lock()
			delete(s.expiredAt, lease.User)
			s.mu.Unlock()
			continue
		}
		if s.cfg.Grace > 0 {
			s.mu.Lock()
			first, seen := s.expiredAt[lease.User]
			if !seen {
				s.expiredAt[lease.User] = now
			}
			s.mu.Unlock()
			if !seen || now.Sub(first) < s.cfg.Grace {
				continue
			}
		}
		if err := s.remediate(ctx, lease); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", lease.User, err))
		}
	}
	return errors.Join(errs...)
}

// remediate handles one expired lease: skip if the recorded primary
// still answers (it will renew on its own or fence itself), otherwise
// promote the best-caught-up reachable follower.
func (s *Sweeper) remediate(ctx context.Context, lease directory.LeaseInfo) error {
	// Diagnose: is the registered primary actually gone?
	if info, err := s.cfg.Dir.LookupUser(ctx, lease.User); err == nil {
		if st, err := peerStatus(ctx, s.cfg.Net, info.Addr, lease.User); err == nil && st.Role == RolePrimary && !st.Fenced {
			return nil // alive; renewal is its problem, not ours
		}
	}
	if len(lease.Replicas) == 0 {
		return fmt.Errorf("lease expired and no replicas recorded")
	}

	// Pick the best candidate: highest applied LSN, ties to the
	// lowest address. Unreachable followers are out.
	type candidate struct {
		addr    string
		applied uint64
	}
	var cands []candidate
	for _, addr := range lease.Replicas {
		st, err := peerStatus(ctx, s.cfg.Net, addr, lease.User)
		if err != nil || st.Role != RoleFollower {
			continue
		}
		cands = append(cands, candidate{addr: addr, applied: st.AppliedLSN})
	}
	if len(cands) == 0 {
		return fmt.Errorf("lease expired and no follower reachable")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].applied != cands[j].applied {
			return cands[i].applied > cands[j].applied
		}
		return cands[i].addr < cands[j].addr
	})

	// The follower re-verifies by winning the lease; two sweepers (or
	// a sweeper racing a self-promoting follower) converge on one
	// winner.
	if err := call(ctx, s.cfg.Net, cands[0].addr, lease.User, "Promote", wire.Args{}, nil); err != nil {
		return fmt.Errorf("promote %s: %w", cands[0].addr, err)
	}
	s.mu.Lock()
	delete(s.expiredAt, lease.User)
	s.mu.Unlock()
	return nil
}

// Start runs Sweep every interval until ctx is done (the
// syddirectory -health-sweep loop). Waits are timed through the
// sweeper's clock, so a fake clock compresses the sweep cadence.
func (s *Sweeper) Start(ctx context.Context, every time.Duration) {
	clock.LoopGo(ctx, s.clk, every, func(time.Time) {
		sctx, cancel := context.WithTimeout(ctx, every)
		if err := s.Sweep(sctx); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("replication: health sweep: %v", err)
		}
		cancel()
	}, nil)
}
