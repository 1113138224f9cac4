// Package listener implements SyDListener (paper §3.1b): it lets SyD
// device objects "publish services (server functionalities) as
// listeners locally on the device and globally via directory
// services", and dispatches inbound remote invocations to the
// registered method implementations.
//
// One Listener serves all device objects hosted on a node (a calendar
// object, the node's link manager, its replication service, ...). Every
// request to a registered service takes one fixed path, written out in
// Listener.serve:
//
//	observe → fence → auth → method lookup → handler
//
// Observe opens the request's rpc.server span and records its
// LayerServer latency from the same two clock reads. The fence
// (SetFence) turns requests away from a primary that lost its lease.
// Auth verifies the caller's sealed credential for objects that
// require it (§5.4).
package listener

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Call is one inbound invocation as a Method sees it: the request the
// transport decoded, the caller's alone while it is served. For an
// object that requires auth, Caller is the *authenticated* identity,
// written over the claimed one. The deadline hint is in ctx, and Meta
// (the trace context, nil when none came) is read-only.
type Call = wire.Request

// Method is a service method implementation. The returned value is the
// response's result (wire.Marshal). As a transport.Handler, a method
// may not keep call, its top-level Args slice or ctx once it returns.
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
	owner   string
	authn   *auth.Authenticator // optional
	tracer  *trace.Tracer       // optional
	metrics *metrics.Registry   // optional

	mu       sync.RWMutex
	services map[string]*Object
	fence    func(service string) error // SetFence; nil admits every request
}

// ListenerOption configures a Listener at construction time.
type ListenerOption func(*Listener)

// WithTracer installs the node's tracer: every request opens an
// rpc.server span, continuing the caller's trace.
func WithTracer(t *trace.Tracer) ListenerOption {
	return func(l *Listener) { l.tracer = t }
}

// WithMetrics records every request's latency in reg's LayerServer
// series, by service, method and error code, auth rejections and
// unknown methods included.
func WithMetrics(reg *metrics.Registry) ListenerOption {
	return func(l *Listener) { l.metrics = reg }
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
	return l
}

// SetFence installs the fence: admit is asked, with the service's name,
// before each request runs, and an error from it is the request's
// answer.
func (l *Listener) SetFence(admit func(service string) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fence = admit
}

// Register publishes obj locally under the service name. Registering
// the same name again replaces the object (a device restarting its
// application).
func (l *Listener) Register(service string, obj *Object) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.services[service] = obj
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

// HandleRequest implements transport.Handler: find the service, serve
// the request, and make the result its response's value: a bool, a
// string, a []uint64 or a wire.Args typed, anything else as its JSON
// text (wire.Marshal). The caller correlates the response on the frame
// ID.
func (l *Listener) HandleRequest(ctx context.Context, req *transport.Request) transport.Response {
	l.mu.RLock()
	obj, ok := l.services[req.Service]
	fence := l.fence
	l.mu.RUnlock()
	if !ok {
		return transport.ErrorResponse(req, wire.CodeNoService, "node %s has no service %q", l.owner, req.Service)
	}
	result, err := l.serve(ctx, fence, obj, req)
	if err != nil {
		return transport.ErrorFor(req, err)
	}
	res, err := wire.Marshal(result)
	if err != nil {
		return transport.ErrorResponse(req, wire.CodeInternal, "encode result: %v", err)
	}
	return transport.Response{ID: req.ID, OK: true, Result: res}
}

// serve is the server's request path. It observes the request, one
// span and one latency sample from the same start and end, around the
// rest.
func (l *Listener) serve(ctx context.Context, fence func(string) error, obj *Object, call *Call) (any, error) {
	var span *trace.Span
	var start time.Time
	if l.tracer != nil {
		// Continues the trace the caller's rpc.client span injected, or
		// roots a new one. The span rides ctx, so a handler that invokes
		// onward hangs its spans underneath it.
		ctx, span = l.tracer.StartRemote(ctx, "rpc.server", call.Meta)
		span.Annotate(trace.String("service", call.Service), trace.String("method", call.Method))
	} else if l.metrics != nil {
		start = time.Now()
	}
	result, err := l.handle(ctx, fence, obj, call)
	span.FinishErr(err)
	if l.metrics != nil {
		d := span.Duration()
		if span == nil {
			d = time.Since(start)
		}
		l.metrics.Observe(metrics.LayerServer, call.Service, call.Method, wire.CodeOf(err), d)
	}
	return result, err
}

// handle runs the fence, verifies the caller when obj requires auth
// (the method sees the authenticated identity in place of the claimed
// one), looks the method up and calls it.
func (l *Listener) handle(ctx context.Context, fence func(string) error, obj *Object, call *Call) (any, error) {
	if fence != nil {
		if err := fence(call.Service); err != nil {
			return nil, err
		}
	}
	if obj.RequireAuth {
		if l.authn == nil {
			return nil, &wire.RemoteError{
				Code: wire.CodeAuth, Service: call.Service, Method: call.Method,
				Msg: fmt.Sprintf("service %q requires auth but node has no authenticator", call.Service),
			}
		}
		user, err := l.authn.Verify(call.Credential)
		if err != nil {
			return nil, &wire.RemoteError{
				Code: wire.CodeAuth, Service: call.Service, Method: call.Method,
				Msg: fmt.Sprintf("authentication failed: %v", err),
			}
		}
		call.Caller = user
	}
	m, ok := obj.methods[call.Method]
	if !ok {
		return nil, &wire.RemoteError{
			Code: wire.CodeNoMethod, Service: call.Service, Method: call.Method,
			Msg: fmt.Sprintf("service %q has no method %q", call.Service, call.Method),
		}
	}
	return m(ctx, call)
}

var _ transport.Handler = (*Listener)(nil)
