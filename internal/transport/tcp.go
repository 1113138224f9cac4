package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TCP is the real-socket Network implementation. Each (client,
// server-address) pair gets one TCP connection; concurrent Calls are
// multiplexed on it by wire request IDs, and the server answers each
// request as its handler returns, so a slow one holds up no other. Each
// frame is one socket write (see frameWriter). Every frame, in both
// directions and from a connection's first byte, is a v3 frame, and each
// direction of a connection has its own name table (wire.NameTable), so
// a repeated name crosses it once.
//
// Use NewTCP; TCP is safe for concurrent use.
type TCP struct {
	stats *metrics.WireStats

	mu     sync.Mutex
	conns  map[string]*tcpClientConn
	closed bool
}

// TCPOption configures a TCP network.
type TCPOption func(*TCP)

// WithWireStats overrides the frame counter sink (tests; the default
// is the process-wide metrics.Wire()).
func WithWireStats(s *metrics.WireStats) TCPOption {
	return func(t *TCP) { t.stats = s }
}

// NewTCP returns a ready TCP network.
func NewTCP(opts ...TCPOption) *TCP {
	t := &TCP{
		stats: metrics.Wire(),
		conns: make(map[string]*tcpClientConn),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// --- server side ----------------------------------------------------------

type tcpListener struct {
	ln      net.Listener
	handler Handler
	stats   *metrics.WireStats
	ctx     context.Context // every request's parent; Close cancels it
	cancel  context.CancelFunc
	wg      sync.WaitGroup // the accept loop, the read loops, the workers
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// Listen implements Network.
func (t *TCP) Listen(addr string, h Handler) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &tcpListener{ln: ln, handler: h, stats: t.stats, conns: make(map[net.Conn]struct{})}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// Close ends the context of every request being served, tears down the
// connections, and returns once every handler has returned.
func (l *tcpListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cancel()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *tcpListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// served is one inbound request and all that serving it takes, in one
// object: the request decoded in place, its hint context, the answer.
type served struct {
	req  Request
	hint hintCtx
	resp Response
}

// servedPool recycles served objects (see tcpListener.work).
var servedPool = sync.Pool{New: func() any { return new(served) }}

// run answers s.req through h under parent, or under s's hint context of
// parent when the caller sent a deadline hint.
func (s *served) run(parent context.Context, h Handler) {
	ctx := parent
	if d := s.req.Deadline(); d > 0 {
		s.hint = hintCtx{Context: parent, deadline: time.Now().Add(d)}
		defer s.hint.release()
		ctx = &s.hint
	}
	s.resp = h.HandleRequest(ctx, &s.req)
	s.resp.ID = s.req.ID
}

func (l *tcpListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	work := make(chan *served) // a send succeeds only to an idle worker
	defer func() {
		close(work) // idle workers return, busy ones once they have answered
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	// One frame reader and one writer per connection,
	// shared by the workers answering on it.
	fr := wire.NewFrameReader(conn)
	fw := &frameWriter{w: conn, stats: l.stats}
	var readBytes int64
	for {
		s := servedPool.Get().(*served)
		if err := fr.ReadRequest(&s.req); err != nil {
			return
		}
		if l.ctx.Err() != nil {
			// Close has begun: start no handler for a request read now
			// (a client's retry of a call whose other connection Close
			// shut first); its caller sees this connection close.
			return
		}
		l.stats.RecordRecv(1, int(fr.Bytes-readBytes))
		readBytes = fr.Bytes
		// A request no idle worker takes gets a new one, so a slow handler
		// (a negotiation holding locks) stalls no other. This loop's own
		// count keeps the Add from racing Close's Wait.
		select {
		case work <- s:
		default:
			l.wg.Add(1)
			go l.work(s, work, fw)
		}
	}
}

// work answers s, then each request handed to it, until work closes.
// Each answered object goes back to the pool, argument slice and all,
// unless its hint context was armed (see hintCtx).
func (l *tcpListener) work(s *served, work <-chan *served, fw *frameWriter) {
	defer l.wg.Done()
	for ; s != nil; s = <-work {
		s.run(l.ctx, l.handler)
		err := fw.writeEnvelope(&wire.Envelope{Kind: wire.KindResponse, Response: &s.resp})
		if errors.Is(err, errEncode) {
			// Answer in its place rather than leave the caller
			// waiting out its deadline.
			s.resp = ErrorResponse(&s.req, wire.CodeInternal, "%v", err)
			_ = fw.writeEnvelope(&wire.Envelope{Kind: wire.KindResponse, Response: &s.resp})
		}
		if s.hint.armed == nil {
			clear(s.req.Args)
			s.req, s.resp = Request{Args: s.req.Args[:0]}, Response{}
			servedPool.Put(s)
		}
	}
}

// --- client side ----------------------------------------------------------

type tcpClientConn struct {
	conn  net.Conn
	w     *frameWriter
	stats *metrics.WireStats

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Response
	dead    bool
}

func (c *tcpClientConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// getConn returns the live connection to addr, dialing one if there is
// none or it has died.
func (t *TCP) getConn(addr string) (*tcpClientConn, error) {
	t.mu.Lock()
	c := t.conns[addr]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil && !c.isDead() {
		return c, nil
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	c = &tcpClientConn{
		conn:    nc,
		w:       &frameWriter{w: nc, stats: t.stats},
		stats:   t.stats,
		pending: make(map[uint64]chan *Response),
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	if existing := t.conns[addr]; existing != nil && !existing.isDead() {
		// Another call dialed addr meanwhile; use its connection.
		t.mu.Unlock()
		nc.Close()
		return existing, nil
	}
	t.conns[addr] = c
	t.mu.Unlock()

	go func() {
		c.readLoop()
		t.dropConn(addr, c)
	}()
	return c, nil
}

// dropConn forgets c as addr's connection, so the next call redials.
func (t *TCP) dropConn(addr string, c *tcpClientConn) {
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

func (c *tcpClientConn) readLoop() {
	fr := wire.NewFrameReader(c.conn)
	var readBytes int64
	for {
		env, err := fr.Read()
		if err != nil {
			c.fail()
			return
		}
		c.stats.RecordRecv(1, int(fr.Bytes-readBytes))
		readBytes = fr.Bytes
		if env.Kind != wire.KindResponse || env.Response == nil {
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[env.Response.ID]
		if ok {
			delete(c.pending, env.Response.ID)
		}
		c.mu.Unlock()
		if ok {
			// The channel is buffered and ownership was transferred
			// under the lock (the entry is gone from pending), so this
			// send never blocks and never races a close.
			ch <- env.Response
		}
	}
}

func (c *tcpClientConn) fail() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	pend := c.pending
	c.pending = make(map[uint64]chan *Response)
	c.mu.Unlock()
	c.conn.Close() // also fails the writer, and whoever is inside it
	for _, ch := range pend {
		close(ch)
	}
}

// replyChans recycles the one-slot channels calls receive their
// responses on. A channel goes back only from call, once call has
// received a response from it: readLoop and fail let go of a channel
// when they send to or close it, so after that receive nothing else
// holds it. A closed or abandoned channel is left to the collector.
var replyChans = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// call sends req on c and waits for its response. written is false when
// the request never left (c was dead, or the write failed).
func (c *tcpClientConn) call(ctx context.Context, req *Request) (resp *Response, written bool, err error) {
	ch := replyChans.Get().(chan *Response)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, false, ErrUnreachable
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	req.ID = id // the request is this call's alone (Network.Call)
	if err := c.w.writeEnvelope(&wire.Envelope{Kind: wire.KindRequest, Request: req}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		if errors.Is(err, errEncode) {
			// The request's fault: the connection and the calls in
			// flight on it carry on.
			return nil, false, &wire.RemoteError{Code: wire.CodeBadArgs, Service: req.Service, Method: req.Method, Msg: err.Error()}
		}
		c.fail()
		return nil, false, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, true, ErrUnreachable
		}
		replyChans.Put(ch)
		return resp, true, nil
	case <-ctx.Done():
		// Cancel/deliver handoff: whoever removes the pending entry
		// under the lock owns the channel. If the entry is already
		// gone, readLoop (or fail) owns it and a send/close is
		// imminent — take that response rather than dropping an
		// answered call on the floor.
		c.mu.Lock()
		_, stillPending := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !stillPending {
			if resp, ok := <-ch; ok {
				replyChans.Put(ch)
				return resp, true, nil
			}
			return nil, true, ErrUnreachable
		}
		return nil, true, ctx.Err()
	}
}

// Call implements Network.
func (t *TCP) Call(ctx context.Context, addr string, req *Request) (*Response, error) {
	ctx, span := trace.Start(ctx, "transport.send")
	if span == nil {
		return t.doCall(ctx, addr, req)
	}
	span.Annotate(trace.String("addr", addr))
	resp, err := t.doCall(ctx, addr, req)
	span.FinishErr(err)
	return resp, err
}

// doCall sends req on the connection to addr. A failure before the
// request was written, the dial's included, is NotSent.
func (t *TCP) doCall(ctx context.Context, addr string, req *Request) (*Response, error) {
	c, err := t.getConn(addr)
	if err != nil {
		return nil, NotSent(err)
	}
	resp, written, err := c.call(ctx, req)
	if errors.Is(err, ErrUnreachable) && !written {
		// One reconnect attempt: the connection died idle (server
		// restart). One that left may have been served: at most once.
		trace.FromContext(ctx).AddEvent("transport.reconnect", trace.String("addr", addr))
		t.dropConn(addr, c)
		c, err2 := t.getConn(addr)
		if err2 != nil {
			return nil, NotSent(err2)
		}
		resp, written, err = c.call(ctx, req)
	}
	if err != nil && !written {
		return nil, NotSent(err)
	}
	return resp, err
}

// Close tears down all client connections. Listeners are closed
// individually by their owners.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, c := range conns {
		c.fail()
	}
	return nil
}
