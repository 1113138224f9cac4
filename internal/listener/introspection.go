package listener

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Introspection builds the sys.<owner> device object: the listener's
// runtime state published as an ordinary SyD service, so any peer can
// remotely inspect what a node serves and how it is performing.
//
//	Services  -> sorted service names registered on the listener
//	Methods   -> {"service": name} -> sorted method names
//	Metrics   -> metrics.Snapshot of reg (empty when reg is nil)
//	Traces    -> the node tracer's retained spans + drop counter
func Introspection(l *Listener, reg *metrics.Registry, tr *trace.Tracer) *Object {
	obj := NewObject()
	obj.Handle("Services", func(ctx context.Context, call *Call) (any, error) {
		return l.Services(), nil
	})
	obj.Handle("Methods", func(ctx context.Context, call *Call) (any, error) {
		name := call.Args.String("service")
		l.mu.RLock()
		target, ok := l.services[name]
		l.mu.RUnlock()
		if !ok {
			return nil, &wire.RemoteError{
				Code: wire.CodeNoService, Service: call.Service, Method: call.Method,
				Msg: fmt.Sprintf("node %s has no service %q", l.owner, name),
			}
		}
		return target.Methods(), nil
	})
	obj.Handle("Metrics", func(ctx context.Context, call *Call) (any, error) {
		return reg.Snapshot(), nil
	})
	obj.Handle("Traces", func(ctx context.Context, call *Call) (any, error) {
		spans := tr.Snapshot()
		if max := call.Args.Int("max"); max > 0 && len(spans) > max {
			spans = spans[len(spans)-max:]
		}
		return map[string]any{
			"node":    tr.Node(),
			"dropped": tr.Dropped(),
			"spans":   spans,
		}, nil
	})
	return obj
}
