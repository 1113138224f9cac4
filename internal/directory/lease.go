package directory

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// Replication leases. The directory is the single lease arbiter: a
// primary for user <id> holds the lease by renewing it before it
// expires, and a follower may only promote itself by acquiring the
// expired lease here. Expiry is computed on the directory's clock —
// holders never compare their own clocks against the deadline, they
// only learn "you still hold it" (renewal succeeds) or "someone else
// does" (CodeConflict), which removes clock skew from the safety
// argument.

// leaseSchema is the replication-lease table, keyed by the replicated
// user id.
var leaseSchema = store.Schema{
	Name: "leases",
	Columns: []store.Column{
		{Name: "id", Type: store.String},
		{Name: "holder", Type: store.String},
		{Name: "deadline", Type: store.Time},
		{Name: "replicas", Type: store.String}, // comma-joined
	},
	Key: []string{"id"},
}

// LeaseInfo is the directory record for one replication lease.
type LeaseInfo struct {
	// User is the replicated identity the lease protects.
	User string `json:"user"`
	// Holder identifies the node currently allowed to act as primary.
	Holder string `json:"holder"`
	// Deadline is when the lease expires on the directory's clock.
	Deadline time.Time `json:"deadline"`
	// Replicas lists the follower addresses the holder last reported —
	// the candidate set for promotion when the lease expires.
	Replicas []string `json:"replicas,omitempty"`
	// Expired is computed server-side at read time.
	Expired bool `json:"expired"`
}

// renewLease acquires or renews the lease on id for holder. It fails
// as lease-held while a different holder's lease is still live;
// an expired lease is taken over (leaseMu makes the check-and-set
// indivisible when two followers race to promote). replicas, when
// non-nil, replaces the stored candidate set.
func (s *Server) renewLease(ctx context.Context, id, holder string, ttl time.Duration, replicas []string) (LeaseInfo, error) {
	if id == "" || holder == "" {
		return LeaseInfo{}, fmt.Errorf("directory: lease id and holder are required")
	}
	if ttl <= 0 {
		return LeaseInfo{}, fmt.Errorf("directory: lease ttl must be positive")
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	now := s.clock.Now()
	deadline := now.Add(ttl)
	err := s.db.Unit(ctx, func(u *store.Tx) error {
		var cur string
		var until time.Time
		if !u.View(leaseSchema.Name, func(r store.Row) { cur, until = r.Str("holder"), r.Time("deadline") }, id) {
			row := s.leases.NewRow()
			row.SetStr("id", id)
			row.SetStr("holder", holder)
			row.SetTime("deadline", deadline)
			row.SetStr("replicas", strings.Join(replicas, ","))
			return u.Insert(leaseSchema.Name, row)
		}
		if cur != holder && until.After(now) {
			return wire.Refuse(wire.ReasonLeaseHeld, "directory: lease on %q held by %q until %s", id, cur, until.Format(time.RFC3339))
		}
		ch := s.leases.NewRow()
		ch.SetStr("holder", holder)
		ch.SetTime("deadline", deadline)
		if replicas != nil {
			ch.SetStr("replicas", strings.Join(replicas, ","))
		}
		return u.Update(leaseSchema.Name, ch, id)
	})
	if err != nil {
		return LeaseInfo{}, err
	}
	return LeaseInfo{User: id, Holder: holder, Deadline: deadline, Replicas: replicas}, nil
}

// releaseLease ends holder's lease on id at once, so that a successor
// can take it without waiting out the TTL: a deliberate handoff. The
// row stays, expired, with its replica set. It is refused as lease-held
// unless holder holds the lease (expired or not), and with
// CodeNoService when there is no lease on id.
func (s *Server) releaseLease(ctx context.Context, id, holder string) error {
	if id == "" || holder == "" {
		return fmt.Errorf("directory: lease id and holder are required")
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	now := s.clock.Now()
	return s.db.Unit(ctx, func(u *store.Tx) error {
		var cur string
		if !u.View(leaseSchema.Name, func(r store.Row) { cur = r.Str("holder") }, id) {
			return errNoLease(id)
		}
		if cur != holder {
			return wire.Refuse(wire.ReasonLeaseHeld, "directory: lease on %q is held by %q, not %q", id, cur, holder)
		}
		ch := s.leases.NewRow()
		ch.SetTime("deadline", now)
		return u.Update(leaseSchema.Name, ch, id)
	})
}

func errNoLease(id string) error {
	return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("no lease on %q", id)}
}

// getLease reads the lease on id. CodeNoService when no lease exists.
func (s *Server) getLease(id string) (LeaseInfo, error) {
	var info LeaseInfo
	now := s.clock.Now()
	if !s.leases.View(func(r store.Row) { info = leaseInfo(r, now) }, id) {
		return LeaseInfo{}, errNoLease(id)
	}
	return info, nil
}

func leaseInfo(r store.Row, now time.Time) LeaseInfo {
	var replicas []string
	if joined := r.Str("replicas"); joined != "" {
		replicas = strings.Split(joined, ",")
	}
	deadline := r.Time("deadline")
	return LeaseInfo{
		User:     r.Str("id"),
		Holder:   r.Str("holder"),
		Deadline: deadline,
		Replicas: replicas,
		Expired:  !deadline.After(now),
	}
}

// repoint rebinds a promoted node in one RPC and one unit: the user
// record's address flips to the new node, as on re-registration, and
// every service the user owns follows, so one call re-points everything
// a client can resolve and a crash leaves all of it or none.
func (s *Server) repoint(ctx context.Context, id, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("directory: repoint id and addr are required")
	}
	now := s.clock.Now()
	return s.db.Unit(ctx, func(u *store.Tx) error {
		if !u.Has("users", id) {
			return errUnknownUser(id)
		}
		ch := s.users.NewRow()
		ch.SetStr("addr", addr)
		ch.SetBool("offline", false)
		ch.SetTime("lastSeen", now)
		if err := u.Update("users", ch, id); err != nil {
			return err
		}
		var names []string // ViewEq's key order; written after the visit
		u.ViewEq("services", "owner", id, func(r store.Row) { names = append(names, r.Str("name")) })
		svc := s.services.NewRow()
		svc.SetStr("addr", addr)
		for _, name := range names {
			if err := u.Update("services", svc, name); err != nil {
				return err
			}
		}
		return nil
	})
}
