// Package engine implements SyDEngine (paper §3.1c): it lets a node
// "execute single or group services remotely via SyDListener and
// aggregate results".
//
// Every invocation takes one fixed path, written out from Engine.invoke
// down:
//
//	observe → offline gate → credential → route cache → resolve → transport
//
// Observe (invoke) opens the call's rpc.client span and records its
// LayerClient latency from the same two clock reads. The offline gate
// (SetGate) fast-fails calls while the device is in local mode, and the
// route cache answers resolution on the warm path (send). Resolve
// (resolved) otherwise asks SyDDirectory, and follows a user the
// directory has moved to a stand-in or back (§5.2) with one re-resolve.
// The transport stage (exchange) puts the caller's identity and sealed
// credential (§5.4) on the request and sends it. Retry runs a call
// under a QoS, and group calls and the links protocol's parallel phases
// all fan out through FanOut.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultGroupLimit bounds FanOut's concurrency.
const DefaultGroupLimit = 32

// Engine is a node's invocation client. Safe for concurrent use.
type Engine struct {
	net      transport.Network
	dir      *directory.Client
	self     string
	dirCache *DirCache
	tracer   *trace.Tracer
	metrics  *metrics.Registry

	// admit and note are the offline gate (SetGate); nil without one.
	admit func(service, method string) error
	note  func(err error)

	mu         sync.RWMutex
	credential string // sealed, sent with every request
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithDirCache installs cache as the engine's directory route cache.
func WithDirCache(cache *DirCache) Option {
	return func(e *Engine) { e.dirCache = cache }
}

// WithTracer installs the node's tracer: every call opens an rpc.client
// span and GroupInvoke a fan-out root span. Without a tracer a call
// makes no span and no metadata map.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithMetrics records every call's latency in reg's LayerClient series,
// by service, method and error code.
func WithMetrics(reg *metrics.Registry) Option {
	return func(e *Engine) { e.metrics = reg }
}

// New creates an engine for the user self.
func New(net transport.Network, dir *directory.Client, self string, opts ...Option) *Engine {
	e := &Engine{net: net, dir: dir, self: self}
	for _, o := range opts {
		o(e)
	}
	return e
}

// SetGate installs the offline gate: admit is asked before each call
// leaves the node, and an error from it fails the call without touching
// the network; note hears every outcome that did go out. Set it once,
// before the first Invoke.
func (e *Engine) SetGate(admit func(service, method string) error, note func(err error)) {
	e.admit, e.note = admit, note
}

// DirCache returns the engine's route cache, or nil when disabled.
func (e *Engine) DirCache() *DirCache { return e.dirCache }

// SetCredential seals user:password with the deployment sealer and
// attaches it to every subsequent request.
func (e *Engine) SetCredential(sealer *auth.Sealer, user, password string) error {
	cred, err := sealer.Seal(user, password)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.credential = cred
	e.mu.Unlock()
	return nil
}

func (e *Engine) getCredential() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.credential
}

// Invoke calls method on the named service, decoding the result into
// out (out may be nil) as wire.Unmarshal does: a typed result lands in
// an out of its type, a Raw one goes to json.Unmarshal.
func (e *Engine) Invoke(ctx context.Context, service, method string, args wire.Args, out any) error {
	return e.invoke(ctx, &call{service: service, method: method, args: args}, out)
}

// invokeRouted is Invoke with the directory route already resolved
// (group fan-out pre-resolves members in one batched pass, when the
// engine has no route cache to keep them in).
func (e *Engine) invokeRouted(ctx context.Context, route directory.ServiceInfo, service, method string, args wire.Args, out any) error {
	return e.invoke(ctx, &call{service: service, method: method, args: args, route: &route}, out)
}

// call is one invocation on its way along the path.
type call struct {
	service, method string
	args            wire.Args
	// route is the directory record the call follows. A cached one is
	// the cache's own entry: the path replaces it, never writes it.
	route *directory.ServiceInfo
	// dest is the address the transport stage last dialled.
	dest string
	// meta carries the trace context; nil when untraced.
	meta wire.Metadata
}

// invoke is the client's call path. It observes the call, one span and
// one latency sample from the same start and end, around the rest.
func (e *Engine) invoke(ctx context.Context, c *call, out any) error {
	var span *trace.Span
	var start time.Time
	if e.tracer != nil {
		ctx, span = e.tracer.StartSpan(ctx, "rpc.client")
		span.Annotate(trace.String("service", c.service), trace.String("method", c.method))
		c.meta = make(wire.Metadata, 4)
		span.Inject(c.meta)
	} else if e.metrics != nil {
		start = time.Now()
	}
	err := e.send(ctx, c, out)
	if span != nil {
		if c.dest != "" {
			span.Annotate(trace.String("dest", c.dest))
		}
		span.FinishErr(err)
	}
	if e.metrics != nil {
		d := span.Duration()
		if span == nil {
			d = time.Since(start)
		}
		e.metrics.Observe(metrics.LayerClient, c.service, c.method, wire.CodeOf(err), d)
	}
	return err
}

// send is the rest of the path. The offline gate lets the call out or
// fails it in local mode; the route cache, unless the call has its
// destination already, gives it its route and keeps what the call
// learned; the gate hears how a call that went out ended.
func (e *Engine) send(ctx context.Context, c *call, out any) error {
	if e.admit != nil {
		if err := e.admit(c.service, c.method); err != nil {
			return err
		}
	}
	var hit *directory.ServiceInfo
	cached := e.dirCache != nil && c.route == nil
	if cached {
		hit = e.dirCache.hit(c.service)
		c.route = hit
	}
	err := e.resolved(ctx, c, out)
	if cached {
		e.dirCache.learn(c.service, hit, c.route, err)
	}
	if e.note != nil {
		e.note(err)
	}
	return err
}

// resolved resolves the service through the directory unless the call
// has a route, and sends it. When a call on a route it did not just
// resolve finds the device unavailable, it asks the directory once
// more; if the service has moved (a stand-in took the user over, or the
// device took the user back, §5.2) it sends the call there, once.
func (e *Engine) resolved(ctx context.Context, c *call, out any) error {
	known := c.route != nil
	if !known {
		// Route-only resolution: the engine never needs the method
		// list, so it skips fetching and decoding it.
		info, err := e.dir.ResolveService(ctx, c.service)
		if err != nil {
			return err
		}
		c.route = &info
	}
	c.dest = c.route.Addr
	err := e.exchange(ctx, c, out)
	if !known || err == nil || !IsUnavailable(err) {
		return err
	}
	info, rerr := e.dir.ResolveService(ctx, c.service)
	if rerr != nil || info.Addr == c.dest {
		return err
	}
	c.route, c.dest = &info, info.Addr
	return e.exchange(ctx, c, out)
}

// exchange is the transport stage: the credential goes on the request,
// and the request to c.dest.
func (e *Engine) exchange(ctx context.Context, c *call, out any) error {
	// Identity and the deadline hint ride in dedicated fields, the trace
	// context in Meta. The hint is taken afresh on every attempt.
	req := &transport.Request{
		Service:    c.service,
		Method:     c.method,
		Args:       c.args,
		Caller:     e.self,
		Credential: e.getCredential(),
		Meta:       c.meta,
	}
	if dl, ok := ctx.Deadline(); ok {
		req.SetDeadline(time.Until(dl))
	}
	resp, err := e.net.Call(ctx, c.dest, req)
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return err
		}
		return fmt.Errorf("engine: call %s.%s at %s: %w", c.service, c.method, c.dest, err)
	}
	if !resp.OK {
		return &wire.RemoteError{Code: resp.Code, Reason: resp.Reason, Service: c.service, Method: c.method, Msg: resp.Error}
	}
	if out != nil {
		if err := wire.Unmarshal(resp.Result, out); err != nil {
			return fmt.Errorf("engine: decode %s.%s result: %w", c.service, c.method, err)
		}
	}
	return nil
}

// IsUnavailable reports whether err means the endpoint could not be
// reached at all, as opposed to the service answering with an error: a
// transport that found the address unreachable, or a CodeUnavailable
// answer.
func IsUnavailable(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) || wire.CodeOf(err) == wire.CodeUnavailable
}

// IsTransient reports whether a failed call may succeed if sent again:
// the endpoint was unavailable, or the attempt ran out of time.
// Anything else (a conflict, bad arguments, auth) is the endpoint's
// definitive answer.
func IsTransient(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || IsUnavailable(err)
}

// GroupResult is one member's outcome in a group invocation: its
// error, or the result value its response carried.
type GroupResult struct {
	Service string
	Err     error
	Result  wire.Value
}

// Decode unmarshals the member's result into v.
func (g *GroupResult) Decode(v any) error {
	if g.Err != nil {
		return g.Err
	}
	return wire.Unmarshal(g.Result, v)
}

// FanOut calls f(0), …, f(n-1) concurrently and returns once every
// call has returned: the one place a request path runs branches in
// parallel and joins them. At most DefaultGroupLimit calls run at once,
// each worker taking the next index until none is left; the calling
// goroutine is one of the workers, so a fan-out of one or none starts
// no goroutine. Its state comes from fanOuts and goes back once every
// worker is done with it.
func FanOut(n int, f func(i int)) {
	s := fanOuts.Get().(*fanOut)
	s.n, s.f = n, f
	for w := 1; w < min(n, DefaultGroupLimit); w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.work()
		}()
	}
	s.work()
	s.wg.Wait()
	s.next.Store(0)
	s.f = nil
	fanOuts.Put(s)
}

// fanOuts holds the state of finished FanOut calls.
var fanOuts = sync.Pool{New: func() any { return new(fanOut) }}

// fanOut is one FanOut call's state.
type fanOut struct {
	next atomic.Int64 // the next index to claim
	wg   sync.WaitGroup
	n    int
	f    func(i int)
}

func (s *fanOut) work() {
	for i := int(s.next.Add(1) - 1); i < s.n; i = int(s.next.Add(1) - 1) {
		s.f(i)
	}
}

// GroupInvoke calls the same method with the same args on every listed
// service concurrently and returns per-member results in input order
// (the engine's "group service invocation and result aggregation").
// FanOut bounds it by DefaultGroupLimit so huge groups cannot exhaust
// the node.
func (e *Engine) GroupInvoke(ctx context.Context, services []string, method string, args wire.Args) []GroupResult {
	// The fan-out root span: each member Invoke below opens its own
	// rpc.client child on its call path, so a stitched trace shows one
	// rpc.group node with one child per target.
	ctx, span := e.tracer.StartSpan(ctx, "rpc.group")
	if span != nil {
		span.Annotate(trace.String("method", method), trace.Int("targets", len(services)))
	}
	routes := e.groupRoutes(ctx, services)
	results := make([]GroupResult, len(services))
	FanOut(len(services), func(i int) {
		r := &results[i] // the result is read into its place
		r.Service = services[i]
		if info, ok := routes[r.Service]; ok && e.dirCache == nil {
			r.Err = e.invokeRouted(ctx, info, r.Service, method, args, &r.Result)
		} else {
			// With a route cache the batch results were stored there, so
			// the plain path hits the cache and keeps its invalidation
			// semantics (unreachable / failover drop the entry).
			r.Err = e.Invoke(ctx, r.Service, method, args, &r.Result)
		}
	})
	if span != nil {
		span.Annotate(trace.Int("ok", OKCount(results)))
		span.FinishErr(FirstError(results))
	}
	return results
}

// groupRoutes pre-resolves the members of a group fan-out in one
// directory pass: names not already in the route cache go out as a
// single ResolveBatch RPC instead of one
// resolver round-trip per member. Resolved routes land in the route
// cache when one is installed. Best-effort: on any failure the members
// simply fall back to per-call resolution, which surfaces the error.
func (e *Engine) groupRoutes(ctx context.Context, services []string) map[string]directory.ServiceInfo {
	if len(services) < 2 {
		return nil
	}
	need := services
	if e.dirCache != nil {
		need = nil // built at the first member the cache misses
		for i, s := range services {
			if e.dirCache.lookup(s) == nil {
				if need == nil {
					need = make([]string, 0, len(services)-i)
				}
				need = append(need, s)
			}
		}
	}
	if len(need) < 2 {
		return nil
	}
	routes, err := e.dir.ResolveBatch(ctx, need)
	if err != nil {
		return nil
	}
	if e.dirCache != nil {
		for name, info := range routes {
			e.dirCache.store(name, &info)
		}
	}
	return routes
}

// validGroupPattern requires exactly one "%s" verb and nothing else
// printf-like, so a bad pattern fails loudly instead of silently
// producing "%!s(MISSING)" service names.
func validGroupPattern(pattern string) error {
	if strings.Count(pattern, "%s") != 1 || strings.Count(pattern, "%") != 1 {
		return fmt.Errorf("engine: group pattern %q must contain exactly one %%s", pattern)
	}
	return nil
}

// InvokeGroupName resolves a directory group and group-invokes the
// given service pattern for each member. pattern must contain exactly
// one "%s" which is replaced by the member id (e.g. "cal.%s").
func (e *Engine) InvokeGroupName(ctx context.Context, group, pattern, method string, args wire.Args) ([]GroupResult, error) {
	if err := validGroupPattern(pattern); err != nil {
		return nil, err
	}
	members, err := e.dir.GroupMembers(ctx, group)
	if err != nil {
		return nil, err
	}
	services := make([]string, len(members))
	for i, m := range members {
		services[i] = fmt.Sprintf(pattern, m)
	}
	return e.GroupInvoke(ctx, services, method, args), nil
}

// OKCount counts successful members.
func OKCount(results []GroupResult) int {
	n := 0
	for _, r := range results {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// FirstError returns the first member error, or nil.
func FirstError(results []GroupResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("engine: %s: %w", r.Service, r.Err)
		}
	}
	return nil
}
