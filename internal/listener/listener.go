// Package listener implements SyDListener (paper §3.1b): it lets SyD
// device objects "publish services (server functionalities) as
// listeners locally on the device and globally via directory
// services", and dispatches inbound remote invocations to the
// registered method implementations.
//
// One Listener serves all device objects hosted on a node (a calendar
// object, the node's link manager, its replication service, ...). Dispatch
// flows through a Middleware chain — user middleware first, then the
// stock AuthMiddleware, then method lookup — so cross-cutting server
// behavior stays out of the transport plumbing.
package listener

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Call carries one inbound invocation through the middleware chain to
// a Method.
type Call struct {
	// Service and Method name the invocation target.
	Service, Method string
	// Caller is the invoking SyD user. When the listener has an
	// authenticator and the service requires auth, Caller is the
	// *authenticated* identity, not the claimed one (user middleware
	// running outside AuthMiddleware sees the claimed identity).
	Caller string
	// Credential is the TEA-sealed credential blob presented by the
	// caller (empty for anonymous calls). AuthMiddleware verifies it
	// for objects that require auth.
	Credential string
	// Args are the named arguments.
	Args wire.Args
	// Meta is the request's wire metadata (trace context), nil when it
	// brought none. Identity lives in the Caller/Credential fields and
	// the deadline hint in ctx. The map is shared with the transport
	// request — middleware and handlers must treat it as read-only.
	Meta wire.Metadata
	// RequireAuth mirrors the target object's RequireAuth flag so
	// middleware can enforce or observe the auth requirement.
	RequireAuth bool

	obj *Object // dispatch target
}

// Method is a service method implementation. The returned value is
// JSON-encoded into the response.
type Method func(ctx context.Context, call *Call) (any, error)

// Object is a set of named methods published as one SyD device object.
type Object struct {
	// RequireAuth demands a valid credential on every request (§5.4).
	RequireAuth bool
	methods     map[string]Method
}

// NewObject creates an empty device object.
func NewObject() *Object {
	return &Object{methods: make(map[string]Method)}
}

// Handle registers a method on the object and returns the object for
// chaining.
func (o *Object) Handle(name string, m Method) *Object {
	o.methods[name] = m
	return o
}

// Methods lists the object's method names, sorted.
func (o *Object) Methods() []string {
	out := make([]string, 0, len(o.methods))
	for n := range o.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Listener is a node's service registry + transport handler.
type Listener struct {
	owner  string
	authn  *auth.Authenticator // optional
	tracer *trace.Tracer       // optional

	mu       sync.RWMutex
	services map[string]*Object
	sink     func(*wire.Event)
	chain    []Middleware // user middleware, outermost first
	dispatch Method       // composed: chain → auth → method lookup
}

// ListenerOption configures a Listener at construction time.
type ListenerOption func(*Listener)

// WithMiddleware appends server middleware to the listener's chain,
// outermost first, ahead of the stock AuthMiddleware.
func WithMiddleware(mw ...Middleware) ListenerOption {
	return func(l *Listener) { l.chain = append(l.chain, mw...) }
}

// WithTracer installs the node's tracer: a stock TraceMiddleware
// stage joins the dispatch chain, just outside AuthMiddleware.
func WithTracer(t *trace.Tracer) ListenerOption {
	return func(l *Listener) { l.tracer = t }
}

// New creates a Listener for the device owned by owner. authn may be
// nil when the deployment does not use authentication.
func New(owner string, authn *auth.Authenticator, opts ...ListenerOption) *Listener {
	l := &Listener{
		owner:    owner,
		authn:    authn,
		services: make(map[string]*Object),
	}
	for _, o := range opts {
		o(l)
	}
	l.rebuild()
	return l
}

// Use appends middleware to the listener's chain (outermost first,
// after any already installed). Typically called during node wiring,
// before traffic flows.
func (l *Listener) Use(mw ...Middleware) {
	l.mu.Lock()
	l.chain = append(l.chain, mw...)
	l.mu.Unlock()
	l.rebuild()
}

// rebuild recomposes the dispatch chain:
//
//	user middleware → TraceMiddleware → AuthMiddleware → method lookup + invoke
func (l *Listener) rebuild() {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := AuthMiddleware(l.authn)(l.terminal)
	if l.tracer != nil {
		m = TraceMiddleware(l.tracer)(m)
	}
	m = ChainMiddleware(l.chain...)(m)
	l.dispatch = m
}

// terminal is the chain's innermost stage: method lookup and
// invocation.
func (l *Listener) terminal(ctx context.Context, call *Call) (any, error) {
	m, ok := call.obj.methods[call.Method]
	if !ok {
		return nil, &wire.RemoteError{
			Code: wire.CodeNoMethod, Service: call.Service, Method: call.Method,
			Msg: fmt.Sprintf("service %q has no method %q", call.Service, call.Method),
		}
	}
	return m(ctx, call)
}

// Owner returns the owning user id.
func (l *Listener) Owner() string { return l.owner }

// Register publishes obj locally under the service name. Registering
// the same name again replaces the object (a device restarting its
// application).
func (l *Listener) Register(service string, obj *Object) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.services[service] = obj
}

// Unregister removes a local service.
func (l *Listener) Unregister(service string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.services, service)
}

// Services lists locally registered service names, sorted.
func (l *Listener) Services() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.services))
	for n := range l.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PublishGlobal registers service with the directory under this
// node's address, making it invokable by any SyD node (the "globally
// via directory services" half of the paper's listener).
func (l *Listener) PublishGlobal(ctx context.Context, dir *directory.Client, service, addr string) error {
	l.mu.RLock()
	obj, ok := l.services[service]
	l.mu.RUnlock()
	if !ok {
		return fmt.Errorf("listener: service %q not registered locally", service)
	}
	return dir.RegisterService(ctx, service, l.owner, addr, obj.Methods())
}

// SetEventSink wires inbound one-way events (global event delivery)
// to the node's event handler.
func (l *Listener) SetEventSink(sink func(*wire.Event)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// HandleEvent implements transport.Handler.
func (l *Listener) HandleEvent(ev *wire.Event) {
	l.mu.RLock()
	sink := l.sink
	l.mu.RUnlock()
	if sink != nil {
		sink(ev)
	}
}

// HandleRequest implements transport.Handler: find the service, run
// the middleware chain (auth, method dispatch, any installed user
// middleware), and encode the result. The response carries no
// metadata: the caller correlates it on the frame ID.
func (l *Listener) HandleRequest(ctx context.Context, req *transport.Request) *transport.Response {
	l.mu.RLock()
	obj, ok := l.services[req.Service]
	dispatch := l.dispatch
	l.mu.RUnlock()
	if !ok {
		return transport.ErrorResponse(req, wire.CodeNoService, "node %s has no service %q", l.owner, req.Service)
	}

	// Re-arm the caller's deadline hint locally when the transport did
	// not propagate a context deadline (real TCP serves requests with
	// a background context). Its timer is armed only if the handler
	// waits on it.
	if d := req.Deadline(); d > 0 {
		if _, has := ctx.Deadline(); !has {
			hc := &hintCtx{Context: ctx, deadline: time.Now().Add(d)}
			defer hc.release()
			ctx = hc
		}
	}

	call := &Call{
		Service:     req.Service,
		Method:      req.Method,
		Caller:      req.Caller,
		Credential:  req.Credential,
		Args:        req.Args,
		Meta:        req.Meta,
		RequireAuth: obj.RequireAuth,
		obj:         obj,
	}
	result, err := dispatch(ctx, call)
	if err != nil {
		return transport.ErrorFor(req, err)
	}
	raw, err := wire.Marshal(result)
	if err != nil {
		return transport.ErrorResponse(req, wire.CodeInternal, "encode result: %v", err)
	}
	return &transport.Response{ID: req.ID, OK: true, Result: raw}
}

var _ transport.Handler = (*Listener)(nil)
