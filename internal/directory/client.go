package directory

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is the typed stub every SyD node uses to talk to the
// directory. It consults the directory "on the fly", as the prototype
// did: every lookup is an RPC. What keeps the directory from becoming a
// hot spot is the route cache of the engine above it (engine.DirCache).
//
// A Client talks either to a single directory server (NewClient) or
// to a sharded directory behind a control plane (NewShardedClient).
// In sharded mode the client pulls the epoch-versioned routing table
// once, routes every op to the shard owning the op's key, and watches
// the epoch stamped on every response: a newer epoch means the table
// is stale — the client refreshes it and notifies OnEpochChange hooks
// (the engine's route cache) at once. An op that still lands on the
// wrong shard (the table changed between pull and call) is redirected
// by the shard's CodeWrongShard reply and retried once against the
// refreshed table.
type Client struct {
	net    transport.Network
	addr   string               // single directory server ("" in sharded mode)
	cp     *controlplane.Client // control plane (nil in single-server mode)
	caller string               // stamped on requests when set (WithCallerID)

	tableMu sync.RWMutex
	table   *controlplane.Table
	hooks   []func(uint64)
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCallerID stamps user as the caller on every directory request.
// The simulated network keys partitions by (caller, destination), so a
// node that identifies itself lets tests cut one device off from the
// directory — the scenario disconnected operation is built around.
func WithCallerID(user string) ClientOption {
	return func(c *Client) { c.caller = user }
}

// NewClient creates a directory client for the single directory
// server at addr.
func NewClient(net transport.Network, addr string, opts ...ClientOption) *Client {
	c := &Client{net: net, addr: addr}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewShardedClient creates a directory client that routes through the
// sharded directory published by the control plane at cpAddr.
func NewShardedClient(net transport.Network, cpAddr string, opts ...ClientOption) *Client {
	c := NewClient(net, "", opts...)
	c.cp = controlplane.NewClient(net, cpAddr)
	return c
}

// Addr returns the directory's network address (the control plane's
// address in sharded mode).
func (c *Client) Addr() string {
	if c.cp != nil {
		return c.cp.Addr()
	}
	return c.addr
}

// Sharded reports whether the client routes through a control plane.
func (c *Client) Sharded() bool { return c.cp != nil }

// Epoch returns the epoch of the client's current routing table (0
// in single-server mode or before the first table pull).
func (c *Client) Epoch() uint64 {
	c.tableMu.RLock()
	defer c.tableMu.RUnlock()
	if c.table == nil {
		return 0
	}
	return c.table.Epoch
}

// OnEpochChange registers fn to run whenever the client observes a
// newer shard-map epoch (after the table refresh). The engine wires its
// route cache here so a bump invalidates warm routes across the whole
// node at once.
func (c *Client) OnEpochChange(fn func(epoch uint64)) {
	c.tableMu.Lock()
	c.hooks = append(c.hooks, fn)
	c.tableMu.Unlock()
}

// --- routing ---------------------------------------------------------------

// routingTable returns the cached table, pulling it from the control
// plane on first use.
func (c *Client) routingTable(ctx context.Context) (*controlplane.Table, error) {
	c.tableMu.RLock()
	t := c.table
	c.tableMu.RUnlock()
	if t != nil {
		return t, nil
	}
	return c.refreshTable(ctx)
}

// refreshTable pulls the current table from the control plane and
// installs it if newer than what the client holds.
func (c *Client) refreshTable(ctx context.Context) (*controlplane.Table, error) {
	t, err := c.cp.ShardMap(ctx)
	if err != nil {
		return nil, err
	}
	return c.installTable(t), nil
}

// installTable swaps the routing table in if t is newer, firing the
// epoch hooks (routes resolved under the old table are suspect).
// Returns the table the client holds afterwards.
func (c *Client) installTable(t *controlplane.Table) *controlplane.Table {
	c.tableMu.Lock()
	if c.table != nil && t.Epoch <= c.table.Epoch {
		t = c.table
		c.tableMu.Unlock()
		return t
	}
	c.table = t
	hooks := append([]func(uint64){}, c.hooks...)
	c.tableMu.Unlock()
	for _, fn := range hooks {
		fn(t.Epoch)
	}
	return t
}

// observeEpoch reacts to the epoch a shard stamped on a response: a
// newer epoch than the client's table triggers an immediate refresh.
func (c *Client) observeEpoch(ctx context.Context, epoch uint64) {
	c.tableMu.RLock()
	cur := c.table
	c.tableMu.RUnlock()
	if cur == nil || epoch <= cur.Epoch {
		return
	}
	_, _ = c.refreshTable(ctx)
}

// callAddr performs one directory RPC against an explicit server
// address, harvesting the response's epoch stamp in sharded mode.
func (c *Client) callAddr(ctx context.Context, addr, method string, args wire.Args, out any) error {
	resp, err := c.net.Call(ctx, addr, &transport.Request{
		Service: ServiceName,
		Method:  method,
		Caller:  c.caller,
		Args:    args,
	})
	if err != nil {
		return fmt.Errorf("directory %s: %w", method, err)
	}
	if c.cp != nil {
		if es := resp.Meta.Get(MetaEpoch); es != "" {
			if e, perr := strconv.ParseUint(es, 10, 64); perr == nil {
				c.observeEpoch(ctx, e)
			}
		}
	}
	if !resp.OK {
		return &wire.RemoteError{Code: resp.Code, Service: ServiceName, Method: method, Msg: resp.Error}
	}
	if out != nil {
		return wire.Unmarshal(resp.Result, out)
	}
	return nil
}

// call routes one keyed directory op: straight to the single server,
// or to the shard owning key, with one retry against a refreshed
// table when the shard answers wrong-shard.
func (c *Client) call(ctx context.Context, key, method string, args wire.Args, out any) error {
	if c.cp == nil {
		return c.callAddr(ctx, c.addr, method, args, out)
	}
	tab, err := c.routingTable(ctx)
	if err != nil {
		return fmt.Errorf("directory %s: shard map: %w", method, err)
	}
	err = c.callAddr(ctx, tab.Owner(key).Addr, method, args, out)
	if wire.CodeOf(err) != wire.CodeWrongShard {
		return err
	}
	// The shard redirected us: observeEpoch already refreshed the
	// table (the redirect carries the shard's epoch), but refresh
	// explicitly in case the pull raced, then retry exactly once.
	tab2, rerr := c.refreshTable(ctx)
	if rerr != nil {
		return err
	}
	return c.callAddr(ctx, tab2.Owner(key).Addr, method, args, out)
}

// fanout runs one RPC per shard (just the one server in single-server
// mode) and hands each response to collect.
func (c *Client) fanout(ctx context.Context, method string, args wire.Args, collect func(addr string) error) error {
	if c.cp == nil {
		return collect(c.addr)
	}
	tab, err := c.routingTable(ctx)
	if err != nil {
		return fmt.Errorf("directory %s: shard map: %w", method, err)
	}
	for _, addr := range tab.Addrs() {
		if err := collect(addr); err != nil {
			return err
		}
	}
	return nil
}

// --- user ops --------------------------------------------------------------

// RegisterUser publishes a user/device with its network address and
// priority.
func (c *Client) RegisterUser(ctx context.Context, id, addr string, priority int) error {
	return c.call(ctx, id, "RegisterUser", wire.Args{"id": id, "addr": addr, "priority": priority}, nil)
}

// LookupUser fetches a user record.
func (c *Client) LookupUser(ctx context.Context, id string) (UserInfo, error) {
	var info UserInfo
	err := c.call(ctx, id, "LookupUser", wire.Args{"id": id}, &info)
	return info, err
}

// ListUsers returns every registered user (merged across shards).
func (c *Client) ListUsers(ctx context.Context) ([]UserInfo, error) {
	var infos []UserInfo
	err := c.fanout(ctx, "ListUsers", wire.Args{}, func(addr string) error {
		var part []UserInfo
		if err := c.callAddr(ctx, addr, "ListUsers", wire.Args{}, &part); err != nil {
			return err
		}
		infos = append(infos, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos, nil
}

// Heartbeat refreshes the caller's liveness.
func (c *Client) Heartbeat(ctx context.Context, id string) error {
	return c.call(ctx, id, "Heartbeat", wire.Args{"id": id}, nil)
}

// SetOffline marks a user deliberately offline (true) or back online.
func (c *Client) SetOffline(ctx context.Context, id string, offline bool) error {
	return c.call(ctx, id, "SetOffline", wire.Args{"id": id, "offline": offline}, nil)
}

// --- service ops -----------------------------------------------------------

// RegisterService publishes a service (SyD device object) under the
// owner's identity.
func (c *Client) RegisterService(ctx context.Context, name, owner, addr string, methods []string) error {
	return c.call(ctx, ShardKey(name), "RegisterService", wire.Args{
		"name": name, "owner": owner, "addr": addr, "methods": methods,
	}, nil)
}

// UnregisterService removes a published service.
func (c *Client) UnregisterService(ctx context.Context, name string) error {
	return c.call(ctx, ShardKey(name), "UnregisterService", wire.Args{"name": name}, nil)
}

// LookupService resolves a service name to its location and methods.
func (c *Client) LookupService(ctx context.Context, name string) (ServiceInfo, error) {
	return c.lookup(ctx, "LookupService", name)
}

// ResolveService is LookupService minus the method list: the
// route-only resolution the engine performs before every uncached
// invocation. The server skips decoding the methods column and the
// response omits it, keeping the per-call lookup lean on both sides.
func (c *Client) ResolveService(ctx context.Context, name string) (ServiceInfo, error) {
	return c.lookup(ctx, "ResolveService", name)
}

// lookup performs one directory lookup RPC.
func (c *Client) lookup(ctx context.Context, method, name string) (ServiceInfo, error) {
	ctx, span := trace.Start(ctx, "dir.lookup")
	if span != nil {
		span.Annotate(trace.String("service", name))
	}
	var info ServiceInfo
	err := c.call(ctx, ShardKey(name), method, wire.Args{"name": name}, &info)
	span.FinishErr(err)
	if err != nil {
		return ServiceInfo{}, err
	}
	return info, nil
}

// ResolveBatch route-resolves many services in one pass: names are
// grouped by owning shard and each shard answers its whole group in a
// single RPC (one RPC total in single-server mode). Unknown names are
// simply absent from the result — callers fall back to per-name
// resolution, which surfaces the error.
func (c *Client) ResolveBatch(ctx context.Context, names []string) (map[string]ServiceInfo, error) {
	if len(names) == 0 {
		return nil, nil
	}
	groups := make(map[string][]string, 1) // shard addr -> names
	if c.cp == nil {
		groups[c.addr] = names
	} else {
		tab, err := c.routingTable(ctx)
		if err != nil {
			return nil, fmt.Errorf("directory ResolveBatch: shard map: %w", err)
		}
		for _, n := range names {
			a := tab.Owner(ShardKey(n)).Addr
			groups[a] = append(groups[a], n)
		}
	}
	out := make(map[string]ServiceInfo, len(names))
	var outMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for addr, group := range groups {
		wg.Add(1)
		go func(addr string, group []string) {
			defer wg.Done()
			var infos []ServiceInfo
			err := c.callAddr(ctx, addr, "ResolveBatch", wire.Args{"names": group}, &infos)
			outMu.Lock()
			defer outMu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, info := range infos {
				out[info.Name] = info
			}
		}(addr, group)
	}
	wg.Wait()
	return out, firstErr
}

// ServicesOf lists service names owned by owner (merged across
// shards: a service co-locates with the user its name points at,
// which is usually but not necessarily the registered owner).
func (c *Client) ServicesOf(ctx context.Context, owner string) ([]string, error) {
	var names []string
	err := c.fanout(ctx, "ServicesOf", wire.Args{"owner": owner}, func(addr string) error {
		var part []string
		if err := c.callAddr(ctx, addr, "ServicesOf", wire.Args{"owner": owner}, &part); err != nil {
			return err
		}
		names = append(names, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// --- group ops -------------------------------------------------------------

// CreateGroup creates (or extends) a named group with members. The
// group lives on the shard owning the group name; members may be
// users on any shard.
func (c *Client) CreateGroup(ctx context.Context, group string, members []string) error {
	return c.call(ctx, group, "CreateGroup", wire.Args{"group": group, "members": members}, nil)
}

// AddMember adds one member to a group (idempotent).
func (c *Client) AddMember(ctx context.Context, group, member string) error {
	return c.call(ctx, group, "AddMember", wire.Args{"group": group, "member": member}, nil)
}

// RemoveMember removes one member from a group (idempotent).
func (c *Client) RemoveMember(ctx context.Context, group, member string) error {
	return c.call(ctx, group, "RemoveMember", wire.Args{"group": group, "member": member}, nil)
}

// GroupMembers lists a group's members, sorted.
func (c *Client) GroupMembers(ctx context.Context, group string) ([]string, error) {
	var members []string
	err := c.call(ctx, group, "GroupMembers", wire.Args{"group": group}, &members)
	return members, err
}

// --- lease ops -------------------------------------------------------------

// RenewLease acquires or renews the replication lease on user for
// holder, reporting the follower addresses a promoter should consult.
// A nil replicas leaves the stored candidate set unchanged. Fails with
// CodeConflict while another holder's lease is live — the caller must
// stop acting as primary immediately.
func (c *Client) RenewLease(ctx context.Context, user, holder string, ttl time.Duration, replicas []string) (LeaseInfo, error) {
	var info LeaseInfo
	args := wire.Args{"id": user, "holder": holder, "ttl": int64(ttl)}
	if replicas != nil {
		args["replicas"] = replicas
	}
	err := c.call(ctx, user, "RenewLease", args, &info)
	return info, err
}

// ReleaseLease ends holder's lease on user at once, so that a
// follower's promotion need not wait out the TTL. CodeConflict when
// holder does not hold the lease.
func (c *Client) ReleaseLease(ctx context.Context, user, holder string) error {
	return c.call(ctx, user, "ReleaseLease", wire.Args{"id": user, "holder": holder}, nil)
}

// GetLease reads the replication lease on user. CodeNoService when
// the user is not replicated.
func (c *Client) GetLease(ctx context.Context, user string) (LeaseInfo, error) {
	var info LeaseInfo
	err := c.call(ctx, user, "GetLease", wire.Args{"id": user}, &info)
	return info, err
}

// ListLeases returns every replication lease (merged across shards) —
// the health sweeper's work list.
func (c *Client) ListLeases(ctx context.Context) ([]LeaseInfo, error) {
	var infos []LeaseInfo
	err := c.fanout(ctx, "ListLeases", wire.Args{}, func(addr string) error {
		var part []LeaseInfo
		if err := c.callAddr(ctx, addr, "ListLeases", wire.Args{}, &part); err != nil {
			return err
		}
		infos = append(infos, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].User < infos[j].User })
	return infos, nil
}

// Repoint rebinds a promoted node in one RPC: the user record and
// every service it owns flip to addr, so clients resolve the new
// primary as soon as their caches invalidate (epoch bump) instead of
// waiting out directory TTLs.
func (c *Client) Repoint(ctx context.Context, user, addr string) error {
	return c.call(ctx, user, "Repoint", wire.Args{"id": user, "addr": addr}, nil)
}
