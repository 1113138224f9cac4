// Package sim provides an in-memory transport.Network with fault and
// latency injection.
//
// The paper ran its prototype on iPAQ PDAs over a wireless LAN, an
// environment with "low communication bandwidth and weak connectivity"
// (§7). We have no PDAs, so this package simulates that substrate: it
// implements the same Network interface as the TCP transport but routes
// frames in memory, adding configurable latency/jitter, message loss,
// link partitions, and device up/down state, while counting every
// message for the experiment harness (DESIGN.md T1/T2).
//
// Each (caller, address) pair is one simulated connection, as a TCP
// client's connection to a peer address is: it numbers its requests and
// sends every frame through a wire.NameTable, one per direction, and the
// wire.Decoder that mirrors it, so a handler receives a request decoded
// as a socket's server decodes it, and a frame costs the bytes it costs
// on a socket. No bytes are buffered: a frame is decoded as soon as it
// is encoded, and the handler runs in the caller's goroutine, under the
// caller's context.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config controls fault and latency injection. The zero value is a
// perfect, instantaneous network. Latency and loss are the *initial*
// values; a live Net can be re-tuned mid-run with SetLoss and
// SetLatency (chaos schedules flip faults on and off while traffic is
// in flight).
type Config struct {
	// BaseLatency is added to every delivery.
	BaseLatency time.Duration
	// Jitter adds a uniform random extra in [0, Jitter).
	Jitter time.Duration
	// LossProb drops a request or its response with this probability
	// (either surfaces as CodeUnavailable).
	LossProb float64
	// Seed seeds the private RNG so runs are reproducible.
	Seed int64
	// Clock times latency sleeps and FlapPartition periods; nil = system
	// clock. The scale harness injects its auto-advancing fake clock so
	// simulated network delays compress along with every other timer.
	Clock clock.Clock
}

// Stats aggregates traffic counters. All fields are totals since the
// network was created (or since ResetStats).
type Stats struct {
	Requests  int64 // requests delivered
	Responses int64 // responses delivered
	Dropped   int64 // messages lost to LossProb, partitions, or down devices
	Bytes     int64 // bytes of the frames delivered, length prefixes included
}

// Net is an in-memory Network. Create with New; safe for concurrent use.
type Net struct {
	cfg Config
	clk clock.Clock

	mu        sync.RWMutex
	endpoints map[string]*endpoint
	down      map[string]bool
	parts     map[[2]string]bool // unordered pair, stored with a<=b
	oneway    map[[2]string]bool // ordered [src, dst]: src cannot reach dst
	isolated  map[string]bool    // addr cut off in both directions

	// Mutable fault config; rngMu guards these together with rng so a
	// mid-test SetLoss/SetLatency is seen by in-flight deliveries.
	rngMu       sync.Mutex
	rng         *rand.Rand
	lossProb    float64
	baseLatency time.Duration
	jitter      time.Duration

	requests  atomic.Int64
	responses atomic.Int64
	dropped   atomic.Int64
	bytes     atomic.Int64

	nextAuto atomic.Int64
}

type endpoint struct {
	addr    string
	handler transport.Handler
	net     *Net
	closed  atomic.Bool

	mu    sync.Mutex
	conns map[string]*conn // by caller: the connections this endpoint serves
}

// conn is one simulated connection, a caller's to an endpoint. Like a
// socket it numbers its requests, and each direction has the sender's
// NameTable and the receiver's Decoder. A frame is encoded and decoded
// in one step under mu, so the two halves of a table take their entries
// in the same order however the calls over the connection interleave.
type conn struct {
	mu         sync.Mutex
	nextID     uint64
	reqs, resp wire.NameTable
	reqsIn     wire.Decoder
	respIn     wire.Decoder
}

// New creates a simulated network with the given config.
func New(cfg Config) *Net {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	return &Net{
		cfg:         cfg,
		clk:         clk,
		endpoints:   make(map[string]*endpoint),
		down:        make(map[string]bool),
		parts:       make(map[[2]string]bool),
		oneway:      make(map[[2]string]bool),
		isolated:    make(map[string]bool),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		lossProb:    cfg.LossProb,
		baseLatency: cfg.BaseLatency,
		jitter:      cfg.Jitter,
	}
}

// SetLoss changes the message-loss probability on the live network.
// Chaos tests flip this mid-run instead of rebuilding the world.
func (n *Net) SetLoss(p float64) {
	n.rngMu.Lock()
	n.lossProb = p
	n.rngMu.Unlock()
}

// SetLatency changes base latency and jitter on the live network.
func (n *Net) SetLatency(base, jitter time.Duration) {
	n.rngMu.Lock()
	n.baseLatency = base
	n.jitter = jitter
	n.rngMu.Unlock()
}

// Listen implements transport.Network. An empty addr or an addr ending
// in ":0" is assigned a unique simulated address.
func (n *Net) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	if addr == "" || len(addr) >= 2 && addr[len(addr)-2:] == ":0" {
		addr = fmt.Sprintf("sim-%d", n.nextAuto.Add(1))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.endpoints[addr]; exists {
		return nil, fmt.Errorf("sim: address %s already bound", addr)
	}
	ep := &endpoint{addr: addr, handler: h, net: n, conns: make(map[string]*conn)}
	n.endpoints[addr] = ep
	return ep, nil
}

func (e *endpoint) Addr() string { return e.addr }

// Close unbinds the address. The connections it served go with it, as
// a closed listener's do: an endpoint bound there later has its own, so
// its callers start fresh ones.
func (e *endpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.net.mu.Lock()
		if e.net.endpoints[e.addr] == e {
			delete(e.net.endpoints, e.addr)
		}
		e.net.mu.Unlock()
	}
	return nil
}

// conn returns caller's connection to e, opening it on first use.
func (e *endpoint) conn(caller string) *conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.conns[caller]
	if c == nil {
		c = new(conn)
		e.conns[caller] = c
	}
	return c
}

// pairKey normalizes an unordered address pair.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetDown marks a device's network presence up or down. Calls to a down
// device fail with CodeUnavailable — this is how mobility experiments
// disconnect an iPAQ.
func (n *Net) SetDown(addr string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.down[addr] = true
	} else {
		delete(n.down, addr)
	}
}

// Isolate cuts addr off from the whole network in both directions (on
// true) or reconnects it (on false). SetDown only blocks inbound
// traffic; Isolate models a commuter device out of radio range — it can
// neither be called nor call anyone, including the directory.
func (n *Net) Isolate(addr string, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if on {
		n.isolated[addr] = true
	} else {
		delete(n.isolated, addr)
	}
}

// Partition blocks traffic between a and b in both directions.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[pairKey(a, b)] = true
}

// PartitionOneWay blocks traffic from src to dst only; dst can still
// reach src. Asymmetric partitions model the weak-connectivity story of
// §7 — a PDA that can hear the fixed network but not be heard.
func (n *Net) PartitionOneWay(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oneway[[2]string{src, dst}] = true
}

// Heal removes any partition between a and b: the symmetric pair and
// both one-way directions.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, pairKey(a, b))
	delete(n.oneway, [2]string{a, b})
	delete(n.oneway, [2]string{b, a})
}

// FlapPartition alternately partitions and heals the a↔b pair every
// period, starting partitioned immediately. It returns a stop function
// (idempotent) that halts the flapping and heals the pair — after the
// flapper has exited, so a toggle already under way cannot cut the pair
// again behind the heal. Chaos tests script an intermittently-connected
// device with this.
func (n *Net) FlapPartition(a, b string, period time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	n.Partition(a, b)
	// Flap periods are timed through the network's clock, so a fake
	// clock steps through them.
	cut := true
	clock.LoopGo(ctx, n.clk, period, func(time.Time) {
		cut = !cut
		if cut {
			n.Partition(a, b)
		} else {
			n.Heal(a, b)
		}
	}, func() { close(exited) })
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-exited
			n.Heal(a, b)
		})
	}
}

// reachable reports whether dst is currently deliverable from src and
// returns the handler if so.
func (n *Net) reachable(src, dst string) (*endpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down[dst] {
		return nil, unavailable("device %s is down", dst)
	}
	if n.isolated[dst] {
		return nil, unavailable("device %s is isolated", dst)
	}
	if src != "" && n.isolated[src] {
		return nil, unavailable("device %s is isolated", src)
	}
	if n.parts[pairKey(src, dst)] {
		return nil, unavailable("partition between %s and %s", src, dst)
	}
	if n.oneway[[2]string{src, dst}] {
		return nil, unavailable("one-way partition %s -> %s", src, dst)
	}
	ep, ok := n.endpoints[dst]
	if !ok {
		return nil, unavailable("no endpoint at %s", dst)
	}
	return ep, nil
}

func unavailable(format string, args ...any) error {
	return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: fmt.Sprintf(format, args...)}
}

// lose decides whether to drop a message.
func (n *Net) lose() bool {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	if n.lossProb <= 0 {
		return false
	}
	return n.rng.Float64() < n.lossProb
}

func (n *Net) latency() time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	d := n.baseLatency
	if n.jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	return d
}

func (n *Net) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-n.clk.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call implements transport.Network. The caller's "source address" for
// partition purposes is taken from req.Caller when it matches a bound
// endpoint; infrastructure calls without a caller bypass partitions. A
// call refused before it leaves (a down, isolated or partitioned peer,
// no endpoint) is transport.NotSent; a lost request or response is not:
// the request left, as a socket's written one did.
func (n *Net) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	src := ""
	if req != nil {
		src = req.Caller
	}
	ep, err := n.reachable(src, addr)
	if err != nil {
		n.dropped.Add(1)
		return nil, transport.NotSent(err)
	}
	if n.lose() {
		n.dropped.Add(1)
		return nil, unavailable("request to %s lost", addr)
	}
	if err := n.sleep(ctx, n.latency()); err != nil {
		return nil, err
	}
	n.requests.Add(1)

	c := ep.conn(src)
	in, size, err := c.request(req)
	if err != nil {
		return nil, err
	}
	n.bytes.Add(int64(size))
	answer := ep.handler.HandleRequest(ctx, in)
	answer.ID = in.ID
	resp, size, err := c.response(&answer)
	if err != nil {
		return nil, err
	}

	if n.lose() {
		n.dropped.Add(1)
		return nil, unavailable("response from %s lost", addr)
	}
	if err := n.sleep(ctx, n.latency()); err != nil {
		return nil, err
	}
	n.responses.Add(1)
	n.bytes.Add(int64(size))
	return resp, nil
}

// request numbers req, encodes it and decodes it into a fresh Request,
// as a socket's server decodes it, and returns that and the frame's
// size. A request that cannot be encoded is the caller's bad-args, as
// over a socket.
func (c *conn) request(req *transport.Request) (*transport.Request, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID // the request is this call's alone (Network.Call)
	f, err := c.reqs.EncodeFrame(&wire.Envelope{Kind: wire.KindRequest, Request: req})
	if err != nil {
		return nil, 0, &wire.RemoteError{Code: wire.CodeBadArgs, Service: req.Service, Method: req.Method, Msg: "sim: encode: " + err.Error()}
	}
	defer f.Release()
	in := new(transport.Request)
	if err := c.reqsIn.DecodeRequest(f.Bytes(), in); err != nil {
		return nil, 0, c.reset(err)
	}
	return in, f.Len(), nil
}

// response encodes answer and decodes it as the caller's end of a
// socket does, and returns that and the frame's size. An answer that
// cannot be encoded is answered with an internal error in its place, as
// a socket's server answers it.
func (c *conn) response(answer *transport.Response) (*transport.Response, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.resp.EncodeFrame(&wire.Envelope{Kind: wire.KindResponse, Response: answer})
	if err != nil {
		*answer = transport.Response{ID: answer.ID, Code: wire.CodeInternal, Error: "sim: encode: " + err.Error()}
		if f, err = c.resp.EncodeFrame(&wire.Envelope{Kind: wire.KindResponse, Response: answer}); err != nil {
			return nil, 0, c.reset(err)
		}
	}
	defer f.Release()
	env, err := c.respIn.Decode(f.Bytes())
	if err != nil {
		return nil, 0, c.reset(err)
	}
	return env.Response, f.Len(), nil
}

// reset starts c afresh after a frame that did not decode, whose names
// one half of a table may have entered and the other not, as a socket's
// end closes the connection such a frame came on and the next call
// redials; the call fails as unreachable. c.mu is held.
func (c *conn) reset(err error) error {
	c.reqs, c.resp, c.reqsIn, c.respIn = wire.NameTable{}, wire.NameTable{}, wire.Decoder{}, wire.Decoder{}
	return fmt.Errorf("sim: connection closed: %w: %w", transport.ErrUnreachable, err)
}

// Stats returns a snapshot of traffic counters.
func (n *Net) Stats() Stats {
	return Stats{
		Requests:  n.requests.Load(),
		Responses: n.responses.Load(),
		Dropped:   n.dropped.Load(),
		Bytes:     n.bytes.Load(),
	}
}

// ResetStats zeroes the traffic counters (partitions and down state are
// unaffected).
func (n *Net) ResetStats() {
	n.requests.Store(0)
	n.responses.Store(0)
	n.dropped.Store(0)
	n.bytes.Store(0)
}
