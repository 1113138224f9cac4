package directory

import (
	"context"
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is the typed stub every SyD node uses to talk to the
// directory. It consults the directory "on the fly", as the prototype
// did: every lookup is an RPC. What keeps the directory from becoming a
// hot spot is the route cache of the engine above it (engine.DirCache).
type Client struct {
	net    transport.Network
	addr   string
	caller string // stamped on requests when set (WithCallerID)
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

// NewClient creates a directory client for the directory server at
// addr.
func NewClient(net transport.Network, addr string, opts ...ClientOption) *Client {
	c := &Client{net: net, addr: addr}
	for _, o := range opts {
		o(c)
	}
	return c
}

// call performs one directory RPC.
func (c *Client) call(ctx context.Context, method string, args wire.Args, out any) error {
	resp, err := c.net.Call(ctx, c.addr, &transport.Request{
		Service: ServiceName,
		Method:  method,
		Caller:  c.caller,
		Args:    args,
	})
	if err != nil {
		return fmt.Errorf("directory %s: %w", method, err)
	}
	if !resp.OK {
		return &wire.RemoteError{Code: resp.Code, Reason: resp.Reason, Service: ServiceName, Method: method, Msg: resp.Error}
	}
	if out != nil {
		return wire.Unmarshal(resp.Result, out)
	}
	return nil
}

// --- user ops --------------------------------------------------------------

// RegisterUser publishes a user/device with its network address and
// priority.
func (c *Client) RegisterUser(ctx context.Context, id, addr string, priority int) error {
	return c.call(ctx, "RegisterUser", wire.Args{wire.Str("id", id), wire.Str("addr", addr), wire.Int("priority", priority)}, nil)
}

// LookupUser fetches a user record.
func (c *Client) LookupUser(ctx context.Context, id string) (UserInfo, error) {
	var info UserInfo
	err := c.call(ctx, "LookupUser", wire.Args{wire.Str("id", id)}, &info)
	return info, err
}

// ListUsers returns every registered user, sorted by id.
func (c *Client) ListUsers(ctx context.Context) ([]UserInfo, error) {
	var infos []UserInfo
	err := c.call(ctx, "ListUsers", wire.Args{}, &infos)
	return infos, err
}

// Heartbeat refreshes the caller's liveness.
func (c *Client) Heartbeat(ctx context.Context, id string) error {
	return c.call(ctx, "Heartbeat", wire.Args{wire.Str("id", id)}, nil)
}

// SetOffline marks a user deliberately offline (true) or back online.
func (c *Client) SetOffline(ctx context.Context, id string, offline bool) error {
	return c.call(ctx, "SetOffline", wire.Args{wire.Str("id", id), wire.Bool("offline", offline)}, nil)
}

// --- service ops -----------------------------------------------------------

// RegisterService publishes a service (SyD device object) under the
// owner's identity.
func (c *Client) RegisterService(ctx context.Context, name, owner, addr string, methods []string) error {
	return c.call(ctx, "RegisterService", wire.Args{
		wire.Str("name", name), wire.Str("owner", owner), wire.Str("addr", addr),
		wire.Strs("methods", methods),
	}, nil)
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
	err := c.call(ctx, method, wire.Args{wire.Str("name", name)}, &info)
	span.FinishErr(err)
	if err != nil {
		return ServiceInfo{}, err
	}
	return info, nil
}

// ResolveBatch route-resolves many services in one RPC. Unknown names
// are simply absent from the result — callers fall back to per-name
// resolution, which surfaces the error.
func (c *Client) ResolveBatch(ctx context.Context, names []string) (map[string]ServiceInfo, error) {
	if len(names) == 0 {
		return nil, nil
	}
	var infos []ServiceInfo
	if err := c.call(ctx, "ResolveBatch", wire.Args{wire.Strs("names", names)}, &infos); err != nil {
		return nil, err
	}
	out := make(map[string]ServiceInfo, len(infos))
	for _, info := range infos {
		out[info.Name] = info
	}
	return out, nil
}

// ServicesOf lists the names of the services owner owns, sorted.
func (c *Client) ServicesOf(ctx context.Context, owner string) ([]string, error) {
	var names []string
	err := c.call(ctx, "ServicesOf", wire.Args{wire.Str("owner", owner)}, &names)
	return names, err
}

// --- group ops -------------------------------------------------------------

// CreateGroup creates (or extends) a named group with members.
func (c *Client) CreateGroup(ctx context.Context, group string, members []string) error {
	return c.call(ctx, "CreateGroup", wire.Args{wire.Str("group", group), wire.Strs("members", members)}, nil)
}

// GroupMembers lists a group's members, sorted.
func (c *Client) GroupMembers(ctx context.Context, group string) ([]string, error) {
	var members []string
	err := c.call(ctx, "GroupMembers", wire.Args{wire.Str("group", group)}, &members)
	return members, err
}

// --- lease ops -------------------------------------------------------------

// RenewLease acquires or renews the replication lease on user for
// holder, reporting the follower addresses a promoter should consult.
// A nil replicas leaves the stored candidate set unchanged. Refused as
// lease-held while another holder's lease is live — the caller must
// stop acting as primary immediately.
func (c *Client) RenewLease(ctx context.Context, user, holder string, ttl time.Duration, replicas []string) (LeaseInfo, error) {
	var info LeaseInfo
	args := wire.Args{wire.Str("id", user), wire.Str("holder", holder), wire.Int64("ttl", int64(ttl))}
	if replicas != nil {
		args = append(args, wire.Strs("replicas", replicas))
	}
	err := c.call(ctx, "RenewLease", args, &info)
	return info, err
}

// ReleaseLease ends holder's lease on user at once, so that a
// follower's promotion need not wait out the TTL. Refused as
// lease-held when holder does not hold the lease.
func (c *Client) ReleaseLease(ctx context.Context, user, holder string) error {
	return c.call(ctx, "ReleaseLease", wire.Args{wire.Str("id", user), wire.Str("holder", holder)}, nil)
}

// GetLease reads the replication lease on user. CodeNoService when
// the user is not replicated.
func (c *Client) GetLease(ctx context.Context, user string) (LeaseInfo, error) {
	var info LeaseInfo
	err := c.call(ctx, "GetLease", wire.Args{wire.Str("id", user)}, &info)
	return info, err
}

// Repoint rebinds a promoted node in one RPC: the user record and
// every service it owns flip to addr. A client holding the old route
// finds it unavailable and re-resolves once within the same call.
func (c *Client) Repoint(ctx context.Context, user, addr string) error {
	return c.call(ctx, "Repoint", wire.Args{wire.Str("id", user), wire.Str("addr", addr)}, nil)
}
