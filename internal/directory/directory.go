// Package directory implements SyDDirectory, the kernel's name server
// (paper §3.1a): it "provides user/group/service publishing,
// management, and lookup services to SyD users and device objects"
// and "supports intelligent proxy maintenance for users/devices"
// (§5.2: the name server stores information about all proxies and SyD
// objects and maps each SyD object to at least one proxy).
//
// The directory runs as a transport.Handler behind a well-known
// address; Client is the typed stub used by every node.
//
// The paper's "intelligent proxy maintenance" (§5.2) is the replication
// lease (lease.go): whoever holds a user's lease serves the user, and
// handing a user to a stand-in or back is a release, a promotion and a
// Repoint.
package directory

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ServiceName is the service identifier the directory answers to.
const ServiceName = "syd.directory"

// DefaultHeartbeatTTL is how long a device stays "online" after its
// last heartbeat unless it deregisters explicitly.
const DefaultHeartbeatTTL = 15 * time.Second

// UserInfo is the directory record for a SyD user/device object.
type UserInfo struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	Priority int       `json:"priority"`
	Online   bool      `json:"online"`
	LastSeen time.Time `json:"lastSeen"`
}

// ServiceInfo is the directory record for a published service.
type ServiceInfo struct {
	Name    string   `json:"name"`
	Owner   string   `json:"owner"`
	Addr    string   `json:"addr"`
	Methods []string `json:"methods,omitempty"`
}

// Server is the directory server state. Create with NewServer (in
// memory) or NewServerOn (a durable DB) and register its Handler with a
// transport listener.
type Server struct {
	clock clock.Clock
	ttl   time.Duration

	db       *store.DB
	users    *store.Table
	services *store.Table
	members  *store.Table
	leases   *store.Table

	// leaseMu makes lease check-and-set indivisible (two followers
	// racing to take over an expired lease must not both win).
	leaseMu sync.Mutex
}

// Option configures a Server.
type Option func(*Server)

// WithClock substitutes the clock (tests use a fake).
func WithClock(c clock.Clock) Option { return func(s *Server) { s.clock = c } }

// WithTTL overrides the heartbeat TTL.
func WithTTL(d time.Duration) Option { return func(s *Server) { s.ttl = d } }

// NewServer creates a directory server whose registry lives in memory
// only.
func NewServer(opts ...Option) *Server {
	s, err := NewServerOn(store.NewDB(), opts...)
	if err != nil {
		panic(err) // fixed schemas on a fresh unlogged DB: only a bug fails here
	}
	return s
}

// NewServerOn creates a directory server whose registry is db. Hand it
// the DB of a wal.Durable and every registration, binding and lease is
// logged before its RPC is acknowledged. A DB recovered from that log
// already holds the tables and the server resumes on them as they
// stand: devices need not re-register after a directory restart, and
// a lease granted before a crash still fences its rival after it. A
// data dir written before proxy bindings were dropped opens too: its
// users rows keep a proxy column nothing reads, and its proxies table
// stays unused.
func NewServerOn(db *store.DB, opts ...Option) (*Server, error) {
	var err error
	ensure := func(schema store.Schema, index string) *store.Table {
		if err != nil {
			return nil
		}
		var t *store.Table
		if t, err = db.EnsureTable(schema); err == nil && index != "" {
			err = t.CreateIndex(index)
		}
		return t
	}
	s := &Server{
		clock: clock.System,
		ttl:   DefaultHeartbeatTTL,
		db:    db,
		users: ensure(store.Schema{
			Name: "users",
			Columns: []store.Column{
				{Name: "id", Type: store.String},
				{Name: "addr", Type: store.String},
				{Name: "priority", Type: store.Int},
				{Name: "offline", Type: store.Bool},
				{Name: "lastSeen", Type: store.Time},
			},
			Key: []string{"id"},
		}, ""),
		services: ensure(store.Schema{
			Name: "services",
			Columns: []store.Column{
				{Name: "name", Type: store.String},
				{Name: "owner", Type: store.String},
				{Name: "addr", Type: store.String},
				{Name: "methods", Type: store.String}, // comma-joined
			},
			Key: []string{"name"},
		}, "owner"),
		members: ensure(store.Schema{
			Name: "members",
			Columns: []store.Column{
				{Name: "group", Type: store.String},
				{Name: "member", Type: store.String},
			},
			Key: []string{"group", "member"},
		}, "group"),
		leases: ensure(leaseSchema, ""),
	}
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// --- server-side operations ------------------------------------------------

// Each write below is one unit (store.DB.Unit) on the RPC's ctx: one log
// record, and all or nothing.

// errUnknownUser is the refusal of a write to a user not registered.
func errUnknownUser(id string) error {
	return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("unknown user %q", id)}
}

// upsert buffers an insert of row with keyCol set to key or, when the
// key is taken, an update of that row to row's columns. The insert is
// the one existence check: a rival's insert that commits first makes
// this unit's commit conflict, and its re-run updates.
func upsert(u *store.Tx, table, keyCol, key string, row store.Row) error {
	ins := row.Clone()
	ins.SetStr(keyCol, key)
	if err := u.Insert(table, ins); !errors.Is(err, store.ErrDupKey) {
		return err
	}
	return u.Update(table, row, key)
}

func (s *Server) registerUser(ctx context.Context, id, addr string, priority int) error {
	if id == "" || addr == "" {
		return fmt.Errorf("directory: user id and addr are required")
	}
	now := s.clock.Now()
	return s.db.Unit(ctx, func(u *store.Tx) error {
		row := s.users.NewRow()
		row.SetStr("addr", addr)
		row.SetInt("priority", int64(priority))
		row.SetBool("offline", false)
		row.SetTime("lastSeen", now)
		return upsert(u, "users", "id", id, row) // re-registration updates: the device moved or came back
	})
}

func (s *Server) lookupUser(id string) (UserInfo, error) {
	var info UserInfo
	if !s.users.View(func(r store.Row) { info = s.userInfo(r) }, id) {
		return UserInfo{}, errUnknownUser(id)
	}
	return info, nil
}

func (s *Server) userInfo(r store.Row) UserInfo {
	last := r.Time("lastSeen")
	online := !r.Bool("offline") && s.clock.Now().Sub(last) <= s.ttl
	return UserInfo{
		ID:       r.Str("id"),
		Addr:     r.Str("addr"),
		Priority: int(r.Int("priority")),
		Online:   online,
		LastSeen: last,
	}
}

// setOffline marks id offline, or back online as of now: a heartbeat is
// setOffline(false).
func (s *Server) setOffline(ctx context.Context, id string, offline bool) error {
	now := s.clock.Now()
	return s.db.Unit(ctx, func(u *store.Tx) error {
		if !u.Has("users", id) {
			return errUnknownUser(id)
		}
		ch := s.users.NewRow()
		ch.SetBool("offline", offline)
		if !offline {
			ch.SetTime("lastSeen", now)
		}
		return u.Update("users", ch, id)
	})
}

func (s *Server) registerService(ctx context.Context, name, owner, addr string, methods []string) error {
	if name == "" || addr == "" {
		return fmt.Errorf("directory: service name and addr are required")
	}
	joined := strings.Join(methods, ",")
	return s.db.Unit(ctx, func(u *store.Tx) error {
		row := s.services.NewRow()
		row.SetStr("owner", owner)
		row.SetStr("addr", addr)
		row.SetStr("methods", joined)
		return upsert(u, "services", "name", name, row)
	})
}

func (s *Server) lookupService(name string) (ServiceInfo, error) {
	info, err := s.resolveService(name, true)
	return info, err
}

// resolveService reads a service record without cloning rows. With
// withMethods false it skips decoding the comma-joined method list —
// the route-only read the engine's resolver issues on every uncached
// invocation, so it stays allocation-lean.
func (s *Server) resolveService(name string, withMethods bool) (ServiceInfo, error) {
	var info ServiceInfo
	var methods string
	found := s.services.View(func(r store.Row) {
		info.Name = r.Str("name")
		info.Owner = r.Str("owner")
		info.Addr = r.Str("addr")
		if withMethods {
			methods = r.Str("methods")
		}
	}, name)
	if !found {
		return ServiceInfo{}, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("unknown service %q", name)}
	}
	if methods != "" {
		info.Methods = splitComma(methods)
	}
	return info, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// createGroup adds members to group in one unit: a member it already
// has is kept, and an empty name refuses the whole call.
func (s *Server) createGroup(ctx context.Context, group string, members []string) error {
	for _, m := range members {
		if group == "" || m == "" {
			return fmt.Errorf("directory: group and member are required")
		}
	}
	return s.db.Unit(ctx, func(u *store.Tx) error {
		for _, m := range members {
			row := s.members.NewRow()
			row.SetStr("group", group)
			row.SetStr("member", m)
			if err := u.Insert("members", row); err != nil && !errors.Is(err, store.ErrDupKey) { // adding twice is fine
				return err
			}
		}
		return nil
	})
}

func (s *Server) groupMembers(group string) []string {
	out := []string{}
	s.members.ViewEq("group", group, func(r store.Row) { out = append(out, r.Str("member")) })
	sort.Strings(out)
	return out
}

// --- transport handler -----------------------------------------------------

// Handler returns the transport.Handler that dispatches directory RPCs.
func (s *Server) Handler() transport.Handler {
	return transport.HandlerFunc(s.dispatch)
}

func (s *Server) dispatch(ctx context.Context, req *transport.Request) transport.Response {
	ok := func(v any) transport.Response {
		res, err := wire.Marshal(v)
		if err != nil {
			return transport.ErrorResponse(req, wire.CodeInternal, "encode: %v", err)
		}
		return transport.Response{ID: req.ID, OK: true, Result: res}
	}
	fail := func(err error) transport.Response { return transport.ErrorFor(req, err) }

	a := req.Args
	switch req.Method {
	case "RegisterUser":
		if err := s.registerUser(ctx, a.String("id"), a.String("addr"), a.Int("priority")); err != nil {
			return fail(err)
		}
		return ok(true)
	case "LookupUser":
		info, err := s.lookupUser(a.String("id"))
		if err != nil {
			return fail(err)
		}
		return ok(info)
	case "ListUsers":
		infos := make([]UserInfo, 0, s.users.Count())
		s.users.ViewAll(func(r store.Row) { infos = append(infos, s.userInfo(r)) })
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		return ok(infos)
	case "Heartbeat":
		if err := s.setOffline(ctx, a.String("id"), false); err != nil {
			return fail(err)
		}
		return ok(true)
	case "SetOffline":
		if err := s.setOffline(ctx, a.String("id"), a.Bool("offline")); err != nil {
			return fail(err)
		}
		return ok(true)
	case "RegisterService":
		if err := s.registerService(ctx, a.String("name"), a.String("owner"), a.String("addr"), a.Strings("methods")); err != nil {
			return fail(err)
		}
		return ok(true)
	case "LookupService":
		info, err := s.lookupService(a.String("name"))
		if err != nil {
			return fail(err)
		}
		return ok(info)
	case "ResolveService":
		info, err := s.resolveService(a.String("name"), false)
		if err != nil {
			return fail(err)
		}
		return ok(info)
	case "ResolveBatch":
		// Route-only resolution for many services in one round trip —
		// the engine's group fan-out resolves all its members with a
		// single RPC. Unknown names are skipped (the per-member
		// invocation surfaces the error).
		names := a.Strings("names")
		infos := make([]ServiceInfo, 0, len(names))
		for _, name := range names {
			info, err := s.resolveService(name, false)
			if err != nil {
				continue
			}
			infos = append(infos, info)
		}
		return ok(infos)
	case "ServicesOf":
		names := []string{}
		s.services.ViewEq("owner", a.String("owner"), func(r store.Row) { names = append(names, r.Str("name")) })
		sort.Strings(names)
		return ok(names)
	case "CreateGroup":
		if err := s.createGroup(ctx, a.String("group"), a.Strings("members")); err != nil {
			return fail(err)
		}
		return ok(true)
	case "GroupMembers":
		return ok(s.groupMembers(a.String("group")))
	case "RenewLease":
		info, err := s.renewLease(ctx, a.String("id"), a.String("holder"), time.Duration(a.Int64("ttl")), a.Strings("replicas"))
		if err != nil {
			return fail(err)
		}
		return ok(info)
	case "ReleaseLease":
		if err := s.releaseLease(ctx, a.String("id"), a.String("holder")); err != nil {
			return fail(err)
		}
		return ok(true)
	case "GetLease":
		info, err := s.getLease(a.String("id"))
		if err != nil {
			return fail(err)
		}
		return ok(info)
	case "Repoint":
		if err := s.repoint(ctx, a.String("id"), a.String("addr")); err != nil {
			return fail(err)
		}
		return ok(true)
	default:
		return transport.ErrorResponse(req, wire.CodeNoMethod, "directory has no method %q", req.Method)
	}
}
