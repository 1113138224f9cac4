package engine

import (
	"context"
	"time"

	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Call describes one outbound invocation as it flows through the
// client interceptor chain. Interceptors may rewrite routing state
// (Route, Dest) and metadata before passing the call on.
type Call struct {
	// Service and Method name the invocation target.
	Service, Method string
	// Args are the named arguments (never mutated by the chain).
	Args wire.Args
	// Meta is the request metadata stamped onto the wire request
	// (trace context). It is nil until a stage makes it; identity and
	// the deadline hint ride in dedicated wire.Request fields.
	Meta wire.Metadata
	// Caller is the invoking SyD user stamped by the credential stage
	// (wire.Request.Caller on the wire).
	Caller string
	// Credential is the TEA-sealed credential blob stamped by the
	// credential stage (wire.Request.Credential on the wire).
	Credential string
	// Addr is an explicit destination forced by the caller
	// (Engine.InvokeAddr); when set, directory resolution is skipped.
	Addr string
	// Route is the resolved directory record for Service. The cache
	// interceptor pre-fills it on a hit; the resolver fills it on a
	// miss, and replaces a cached one that led to a moved device. A
	// stage replaces it and never writes through it: a cached one is
	// the cache's own entry.
	Route *directory.ServiceInfo
	// Dest is the concrete dial address chosen for the current
	// attempt (set by the resolver, read by the transport stage).
	Dest string
}

// Invoker executes one invocation attempt, decoding the result into
// out (out may be nil). The innermost invoker performs the transport
// exchange; outer invokers are produced by Interceptors.
type Invoker func(ctx context.Context, call *Call, out any) error

// Interceptor wraps an Invoker with cross-cutting behavior (metrics,
// retries, caching, credential injection). Interceptors compose like
// HTTP middleware: the first interceptor in a chain is outermost.
type Interceptor func(next Invoker) Invoker

// ChainInterceptors composes ics into one Interceptor (ics[0]
// outermost). An empty chain is the identity.
func ChainInterceptors(ics ...Interceptor) Interceptor {
	return func(next Invoker) Invoker {
		for i := len(ics) - 1; i >= 0; i-- {
			next = ics[i](next)
		}
		return next
	}
}

// CredentialInterceptor stamps the engine's identity onto every
// outbound call that has none: the caller name and, when one has been
// set, the TEA-sealed credential (§5.4), in the dedicated
// Call.Caller/Call.Credential fields.
func CredentialInterceptor(e *Engine) Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			if call.Caller == "" {
				call.Caller = e.self
			}
			if call.Credential == "" {
				call.Credential = e.getCredential()
			}
			return next(ctx, call, out)
		}
	}
}

// MetricsInterceptor records per-(service, method, error-code) counts
// and latency for every attempt that passes through it.
func MetricsInterceptor(reg *metrics.Registry) Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			start := time.Now()
			err := next(ctx, call, out)
			reg.Observe(metrics.LayerClient, call.Service, call.Method, wire.CodeOf(err), time.Since(start))
			return err
		}
	}
}

// TraceInterceptor opens one client span per logical invocation and
// injects its ids into the call metadata so the far side can continue
// the trace. It sits above the resolver, so a single span covers
// resolution, a re-resolution, and every transport attempt; the
// destination is annotated after the fact, once the resolver has
// chosen it.
func TraceInterceptor(t *trace.Tracer) Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			ctx, s := t.StartSpan(ctx, "rpc.client")
			if s == nil {
				return next(ctx, call, out)
			}
			s.Annotate(trace.String("service", call.Service), trace.String("method", call.Method))
			if call.Meta == nil {
				call.Meta = make(wire.Metadata, 4)
			}
			s.Inject(call.Meta)
			err := next(ctx, call, out)
			if call.Dest != "" {
				s.Annotate(trace.String("dest", call.Dest))
			}
			s.FinishErr(err)
			return err
		}
	}
}

// resolveInterceptor is the routing stage every engine chain ends
// with (just above the transport): it resolves Service through the
// directory unless a Route was pre-filled (cache hit) or an explicit
// Addr forces the destination. When a call on a cached route finds the
// device unavailable, it asks the directory once more; if the service
// has moved — a stand-in took the user over, or the device took the
// user back (§5.2) — it sends the call there, once.
func resolveInterceptor(e *Engine) Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			if call.Addr != "" {
				call.Dest = call.Addr
				return next(ctx, call, out)
			}
			cached := call.Route != nil
			if !cached {
				// Route-only resolution: the engine never needs the
				// method list, so skip fetching and decoding it.
				info, err := e.dir.ResolveService(ctx, call.Service)
				if err != nil {
					return err
				}
				call.Route = &info
			}
			call.Dest = call.Route.Addr
			err := next(ctx, call, out)
			if !cached || err == nil || !isUnavailable(err) {
				return err
			}
			info, rerr := e.dir.ResolveService(ctx, call.Service)
			if rerr != nil || info.Addr == call.Dest {
				return err
			}
			call.Route, call.Dest = &info, info.Addr
			return next(ctx, call, out)
		}
	}
}
