// Package replication adds warm standbys to a SyD node: the primary
// streams its committed WAL frames (and bootstrap snapshots) to
// followers, and a directory-arbitrated lease decides who may act as
// primary: when a primary dies, the best-caught-up follower wins the
// expired lease and promotes itself. The paper's prototype leaned on Oracle for
// durability and availability (§5.3); this package supplies the
// availability half on top of the repo's own WAL.
//
// Safety argument, in brief:
//
//   - The directory is the single lease arbiter and expiry is computed
//     on ITS clock — holders never compare their own clocks to the
//     deadline, they only observe renewal success or CodeConflict.
//   - The primary stamps its local validity window from the clock
//     reading taken BEFORE each renewal RPC is sent, so its local
//     fence always trips no later than the directory-side expiry.
//   - A follower promotes only by winning the expired lease
//     (check-and-set on the directory), and a restarted old primary
//     cannot boot past its initial synchronous renewal while another
//     node holds the lease.
package replication

import (
	"context"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ServicePrefix namespaces replication device objects.
const ServicePrefix = "repl."

// ServiceFor names the replication service of user's node. The
// primary serves Pull/Snapshot/Status under it; a follower serves
// Status under the same name at its own address.
func ServiceFor(user string) string { return ServicePrefix + user }

// Role is a node's position in a replica set.
type Role string

// Roles.
const (
	RolePrimary  Role = "primary"
	RoleFollower Role = "follower"
)

// Status is one node's replication state — served over the Status
// RPC, the /replication debug endpoint, and follower peer comparison
// during promotion.
type Status struct {
	User   string `json:"user"`
	Role   Role   `json:"role"`
	Holder string `json:"holder"`
	// LeaseGoodUntil is the primary's conservative local validity
	// window (zero on followers).
	LeaseGoodUntil time.Time `json:"leaseGoodUntil,omitempty"`
	// LeaseValid reports whether the primary may serve (always false
	// once fenced); on followers it is false.
	LeaseValid bool `json:"leaseValid"`
	// Fenced is set once the primary has lost its lease for good.
	Fenced bool `json:"fenced,omitempty"`
	// ShippedLSN is the primary's log tail: its own LastLSN on a
	// primary, the tail last reported by Pull on a follower.
	ShippedLSN uint64 `json:"shippedLSN"`
	// AppliedLSN is the highest LSN durably applied locally (equals
	// ShippedLSN on a primary).
	AppliedLSN uint64 `json:"appliedLSN"`
	// LagBytes is the follower's byte lag behind the primary's tail as
	// of its last pull (0 on a primary).
	LagBytes int64 `json:"lagBytes"`
	// Pulls, Snapshots, BadBatches count follower pull traffic
	// (served-pull count on a primary).
	Pulls      uint64 `json:"pulls"`
	Snapshots  uint64 `json:"snapshots"`
	BadBatches uint64 `json:"badBatches"`
}

// pullReply is the wire shape of the Pull RPC result.
type pullReply struct {
	// Frames holds raw WAL frames [from..Last], byte-identical to the
	// primary's segments. Empty when the follower is caught up.
	Frames []byte `json:"frames,omitempty"`
	// Last is the LSN of the last shipped frame (from-1 when none).
	Last uint64 `json:"last"`
	// TailLSN is the primary's current log tail, for lag reporting.
	TailLSN uint64 `json:"tailLSN"`
	// Remaining counts complete-frame bytes above Last still on the
	// primary's disk.
	Remaining int64 `json:"remaining"`
	// Snapshot reports that from is already trimmed: the follower must
	// bootstrap via the Snapshot RPC instead.
	Snapshot bool `json:"snapshot,omitempty"`
}

// snapshotReply is the wire shape of the Snapshot RPC result.
type snapshotReply struct {
	Data []byte `json:"data"`
	LSN  uint64 `json:"lsn"`
}

// call performs one raw replication RPC against addr (followers
// address peers directly — replica addresses come from the lease
// record, not from directory resolution).
func call(ctx context.Context, net transport.Network, addr, user, method string, args wire.Args, out any) error {
	resp, err := net.Call(ctx, addr, &transport.Request{
		Service: ServiceFor(user),
		Method:  method,
		Args:    args,
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return &wire.RemoteError{Code: resp.Code, Reason: resp.Reason, Service: ServiceFor(user), Method: method, Msg: resp.Error}
	}
	if out != nil {
		return wire.Unmarshal(resp.Result, out)
	}
	return nil
}

// peerStatus fetches the replication status served at addr.
func peerStatus(ctx context.Context, net transport.Network, addr, user string) (Status, error) {
	var st Status
	err := call(ctx, net, addr, user, "Status", wire.Args{}, &st)
	return st, err
}
