// Package engine implements SyDEngine (paper §3.1c): it lets a node
// "execute single or group services remotely via SyDListener and
// aggregate results".
//
// Every invocation flows through a composable interceptor chain
// (client-side middleware). The stock stages re-express what used to
// be inline logic: TraceInterceptor opens each call's client span,
// CredentialInterceptor seals the caller's identity onto each request
// (§5.4), DirCache short-circuits resolution on the warm path, and the
// resolver stage looks services up through SyDDirectory and follows a
// user the directory has moved to a stand-in or back (§5.2). The
// package also provides stages it does not install itself:
// MetricsInterceptor, which core puts in front of the stock chain, and
// RetryInterceptor, which links wraps around its recovery sends.
// Applications can push their own interceptors in front of the stock
// chain. Group calls and the links protocol's parallel phases all fan
// out through FanOut.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/directory"
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

	mu         sync.RWMutex
	credential string // sealed, sent with every request

	chainMu sync.RWMutex
	extra   []Interceptor // user interceptors, outermost first
	invoke  Invoker       // composed chain, ending at the transport
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithInterceptors appends client interceptors to the engine's chain,
// outermost first, ahead of the stock credential/cache/resolver
// stages.
func WithInterceptors(ics ...Interceptor) Option {
	return func(e *Engine) { e.extra = append(e.extra, ics...) }
}

// WithDirCache installs cache as the engine's directory route cache.
func WithDirCache(cache *DirCache) Option {
	return func(e *Engine) { e.dirCache = cache }
}

// WithTracer installs the node's tracer: a stock TraceInterceptor
// stage joins the chain and GroupInvoke opens a fan-out root span.
// Without a tracer the chain carries no tracing stage at all — the
// hot path stays allocation-identical to the untraced build.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// New creates an engine for the user self.
func New(net transport.Network, dir *directory.Client, self string, opts ...Option) *Engine {
	e := &Engine{net: net, dir: dir, self: self}
	for _, o := range opts {
		o(e)
	}
	e.rebuild()
	return e
}

// Use appends interceptors to the engine's chain (outermost first,
// after any already installed). Typically called during node wiring,
// before traffic flows.
func (e *Engine) Use(ics ...Interceptor) {
	e.chainMu.Lock()
	e.extra = append(e.extra, ics...)
	e.chainMu.Unlock()
	e.rebuild()
}

// rebuild recomposes the invoker chain:
//
//	user interceptors → trace → credential → dir cache → resolver → transport
func (e *Engine) rebuild() {
	e.chainMu.Lock()
	defer e.chainMu.Unlock()
	chain := make([]Interceptor, 0, len(e.extra)+4)
	chain = append(chain, e.extra...)
	if e.tracer != nil {
		chain = append(chain, TraceInterceptor(e.tracer))
	}
	chain = append(chain, CredentialInterceptor(e))
	if e.dirCache != nil {
		chain = append(chain, e.dirCache.Interceptor())
	}
	chain = append(chain, resolveInterceptor(e))
	e.invoke = ChainInterceptors(chain...)(e.transportInvoker())
}

// invoker returns the current composed chain.
func (e *Engine) invoker() Invoker {
	e.chainMu.RLock()
	defer e.chainMu.RUnlock()
	return e.invoke
}

// transportInvoker is the chain's innermost stage: it performs the
// wire exchange with the destination the resolver chose.
func (e *Engine) transportInvoker() Invoker {
	return func(ctx context.Context, call *Call, out any) error {
		dest := call.Dest
		if dest == "" {
			dest = call.Addr
		}
		if dest == "" {
			return fmt.Errorf("engine: no destination for %s.%s (resolver stage missing)", call.Service, call.Method)
		}
		// Identity and the deadline hint ride in dedicated fields, call.Meta
		// (trace context) as it is. The hint is taken afresh on every
		// attempt (retries shrink it).
		req := &transport.Request{
			Service:    call.Service,
			Method:     call.Method,
			Args:       call.Args,
			Caller:     call.Caller,
			Credential: call.Credential,
			Meta:       call.Meta,
		}
		if dl, ok := ctx.Deadline(); ok {
			req.SetDeadline(time.Until(dl))
		}

		resp, err := e.net.Call(ctx, dest, req)
		if err != nil {
			var re *wire.RemoteError
			if errors.As(err, &re) {
				return err
			}
			return fmt.Errorf("engine: call %s.%s at %s: %w", call.Service, call.Method, dest, err)
		}
		if !resp.OK {
			return &wire.RemoteError{Code: resp.Code, Reason: resp.Reason, Service: call.Service, Method: call.Method, Msg: resp.Error}
		}
		if out != nil {
			if err := wire.Unmarshal(resp.Result, out); err != nil {
				return fmt.Errorf("engine: decode %s.%s result: %w", call.Service, call.Method, err)
			}
		}
		return nil
	}
}

// Self returns the engine's user identity.
func (e *Engine) Self() string { return e.self }

// Directory returns the engine's directory client.
func (e *Engine) Directory() *directory.Client { return e.dir }

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

// newCall builds the chain input for one logical invocation. Its
// metadata starts nil: a stage that has a key to send (trace context)
// makes the map.
func newCall(addr, service, method string, args wire.Args) *Call {
	return &Call{Service: service, Method: method, Args: args, Addr: addr}
}

// Invoke calls method on the named service, decoding the result into
// out (out may be nil). Resolution, failover, credential injection,
// and any installed caching/metrics all happen in the interceptor
// chain.
func (e *Engine) Invoke(ctx context.Context, service, method string, args wire.Args, out any) error {
	return e.invoker()(ctx, newCall("", service, method, args), out)
}

// InvokeAddr calls method on service at an explicit address, skipping
// directory resolution (the rest of the chain still applies).
func (e *Engine) InvokeAddr(ctx context.Context, addr, service, method string, args wire.Args, out any) error {
	return e.invoker()(ctx, newCall(addr, service, method, args), out)
}

// invokeRouted is Invoke with the directory route already resolved
// (group fan-out pre-resolves members in one batched pass); the
// resolver stage skips its per-call lookup.
func (e *Engine) invokeRouted(ctx context.Context, route directory.ServiceInfo, service, method string, args wire.Args, out any) error {
	call := newCall("", service, method, args)
	call.Route = &route
	return e.invoker()(ctx, call, out)
}

// isUnavailable reports whether err means "the endpoint cannot be
// reached at all" (as opposed to the service answering with an error).
func isUnavailable(err error) bool {
	if errors.Is(err, transport.ErrUnreachable) {
		return true
	}
	return wire.CodeOf(err) == wire.CodeUnavailable
}

// GroupResult is one member's outcome in a group invocation.
type GroupResult struct {
	Service string
	Err     error
	Raw     json.RawMessage
}

// Decode unmarshals the member's result into v.
func (g *GroupResult) Decode(v any) error {
	if g.Err != nil {
		return g.Err
	}
	return wire.Unmarshal(g.Raw, v)
}

// FanOut calls f(0), …, f(n-1) concurrently and returns once every
// call has returned: the one place a request path runs branches in
// parallel and joins them. At most DefaultGroupLimit calls run at once,
// each worker taking the next index until none is left; the calling
// goroutine is one of the workers, so a fan-out of one or none starts
// no goroutine.
func FanOut(n int, f func(i int)) {
	s := &fanOut{n: n, f: f}
	for w := 1; w < min(n, DefaultGroupLimit); w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.work()
		}()
	}
	s.work()
	s.wg.Wait()
}

// fanOut is one FanOut call's state, in one allocation.
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
	// rpc.client child through the chain, so a stitched trace shows one
	// rpc.group node with one child per target.
	ctx, span := e.tracer.StartSpan(ctx, "rpc.group")
	if span != nil {
		span.Annotate(trace.String("method", method), trace.Int("targets", len(services)))
	}
	routes := e.groupRoutes(ctx, services)
	results := make([]GroupResult, len(services))
	FanOut(len(services), func(i int) {
		svc := services[i]
		var raw json.RawMessage
		var err error
		if info, ok := routes[svc]; ok && e.dirCache == nil {
			err = e.invokeRouted(ctx, info, svc, method, args, &raw)
		} else {
			// With a route cache the batch results were stored there, so
			// the plain path hits the cache and keeps its invalidation
			// semantics (unreachable / failover drop the entry).
			err = e.Invoke(ctx, svc, method, args, &raw)
		}
		results[i] = GroupResult{Service: svc, Err: err, Raw: raw}
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
		need = make([]string, 0, len(services))
		for _, s := range services {
			if e.dirCache.lookup(s) == nil {
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

// AllOK reports whether every member succeeded.
func AllOK(results []GroupResult) bool { return OKCount(results) == len(results) }

// FirstError returns the first member error, or nil.
func FirstError(results []GroupResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("engine: %s: %w", r.Service, r.Err)
		}
	}
	return nil
}

// Collect decodes every successful member result into T, returning the
// values (in result order) and the services that failed — the typed
// half of the engine's "result aggregation".
func Collect[T any](results []GroupResult) (values []T, failed []string) {
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r.Service)
			continue
		}
		var v T
		if err := wire.Unmarshal(r.Raw, &v); err != nil {
			failed = append(failed, r.Service)
			continue
		}
		values = append(values, v)
	}
	return values, failed
}

// Quorum reports whether at least k members succeeded.
func Quorum(results []GroupResult, k int) bool { return OKCount(results) >= k }
