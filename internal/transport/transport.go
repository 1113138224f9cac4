// Package transport defines the Network abstraction the SyD kernel
// rides on and provides the real TCP implementation.
//
// The paper's layering (Fig. 2) puts SyD above a "primitive
// distribution middleware" — their prototype used raw TCP sockets. We
// capture that layer as the Network interface so the identical kernel
// runs over real TCP (cmd/ binaries) and over the in-memory simulated
// network in internal/sim (tests, benchmarks, mobility experiments).
package transport

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Errors common to Network implementations.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrUnreachable = errors.New("transport: address unreachable")
)

// Handler is the server-side dispatch surface. HandleRequest must be
// safe for concurrent calls; req is its call's alone, to write in place.
// Once it returns, the TCP listener recycles req, its top-level Args slice
// and ctx, so it keeps none of them (nested lists and strings it may).
type Handler interface {
	HandleRequest(ctx context.Context, req *Request) Response
}

// Request and Response re-export the wire types so most packages only
// import transport.
type (
	// Request is an RPC request (see wire.Request).
	Request = wire.Request
	// Response is an RPC response (see wire.Response).
	Response = wire.Response
)

// Listener is a bound server endpoint.
type Listener interface {
	// Addr is the address peers dial to reach this listener.
	Addr() string
	// Close stops accepting and tears down live connections.
	Close() error
}

// Network is the primitive distribution middleware interface.
type Network interface {
	// Listen binds addr and serves inbound traffic through h.
	// For TCP an addr like "127.0.0.1:0" picks a free port; the
	// Listener reports the bound address.
	Listen(addr string, h Handler) (Listener, error)
	// Call performs a request/response exchange with addr. req is the
	// call's alone until Call returns: the transport may number it in
	// place (its ID), so no two calls in flight may share one.
	Call(ctx context.Context, addr string, req *Request) (*Response, error)
}

// HandlerFunc adapts a request function into a Handler.
type HandlerFunc func(ctx context.Context, req *Request) Response

// HandleRequest implements Handler.
func (f HandlerFunc) HandleRequest(ctx context.Context, req *Request) Response {
	return f(ctx, req)
}

// ErrorResponse builds a failed Response for req.
func ErrorResponse(req *Request, code wire.ErrCode, format string, args ...any) Response {
	return Response{ID: req.ID, OK: false, Code: code, Error: fmt.Sprintf(format, args...)}
}

// ErrorFor answers req with a handler's err: the code, reason and message
// of a RemoteError in its chain, else CodeInternal and err's text.
func ErrorFor(req *Request, err error) Response {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return Response{ID: req.ID, Code: re.Code, Reason: re.Reason, Error: re.Msg}
	}
	return ErrorResponse(req, wire.CodeInternal, "%s", err.Error())
}
