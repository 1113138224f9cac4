package transport

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// newTCPPairCodec is newTCPPair with a configured wire codec on both
// the client and server roles of the returned network.
func newTCPPairCodec(t *testing.T, h Handler, codec wire.Codec) (*TCP, string) {
	t.Helper()
	tn := NewTCP(WithWireCodec(codec))
	ln, err := tn.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		tn.Close()
	})
	return tn, ln.Addr()
}

// clientConnsV3 reports the negotiated state of every live pooled
// client connection to addr: total live conns and how many have
// latched to v3.
func clientConnsV3(t *testing.T, tn *TCP, addr string) (live, v3 int) {
	t.Helper()
	tn.mu.Lock()
	p := tn.pools[addr]
	tn.mu.Unlock()
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.slots {
		if c == nil || c.isDead() {
			continue
		}
		live++
		if codec, _ := c.sendCodec(); codec == wire.CodecV3 {
			v3++
		}
	}
	return live, v3
}

// TestCodecNegotiationUpgradesToV3: two default-constructed networks —
// the deployment shape — start each connection in JSON carrying the
// advertisement, receive a v3 response, and flip every pooled
// connection to v3 sends, while every call's payload round-trips
// intact.
func TestCodecNegotiationUpgradesToV3(t *testing.T) {
	h := &echoHandler{}
	tn, addr := newTCPPair(t, h)
	ctx := context.Background()

	// Enough sequential calls to cycle through every pool slot twice:
	// call k negotiates slot k%size, call k+size uses it upgraded.
	for i := 0; i < 2*tn.poolSize+2; i++ {
		resp, err := tn.Call(ctx, addr, &Request{
			Service: "echo", Method: "ping", Args: wire.Args{"i": i, "s": "x"},
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		var out map[string]any
		if err := wire.Unmarshal(resp.Result, &out); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if wire.Args(out).Int("i") != i {
			t.Fatalf("call %d echoed %v", i, out)
		}
	}
	live, v3 := clientConnsV3(t, tn, addr)
	if live == 0 || v3 != live {
		t.Fatalf("want every live client conn upgraded to v3, have %d/%d", v3, live)
	}
}

// advertCounter echoes like echoHandler and counts the requests that
// carried the v3 advertisement.
type advertCounter struct {
	echoHandler
	adverts atomic.Int64
}

func (h *advertCounter) HandleRequest(ctx context.Context, req *Request) *Response {
	if _, ok := req.Meta[wire.MetaWireCodec]; ok {
		h.adverts.Add(1)
	}
	return h.echoHandler.HandleRequest(ctx, req)
}

// TestCodecMixedFleetV3ClientJSONServer: a default (v3-preferring)
// client against a JSON-only server (old fleet member) must negotiate
// down cleanly — all calls succeed over JSON, no connection ever
// upgrades, and each connection advertises only until the server's
// first JSON answer: the calls are sequential, so that is one advert
// per pooled connection however many calls follow.
func TestCodecMixedFleetV3ClientJSONServer(t *testing.T) {
	h := &advertCounter{}
	server := NewTCP(WithWireCodec(wire.CodecJSON))
	ln, err := server.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer server.Close()

	client := NewTCP()
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 2*client.poolSize+2; i++ {
		resp, err := client.Call(ctx, ln.Addr(), &Request{
			Service: "echo", Method: "ping", Args: wire.Args{"i": i},
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		var out map[string]any
		if err := wire.Unmarshal(resp.Result, &out); err != nil || wire.Args(out).Int("i") != i {
			t.Fatalf("call %d echoed %v (%v)", i, out, err)
		}
	}
	live, v3 := clientConnsV3(t, client, ln.Addr())
	if live == 0 || v3 != 0 {
		t.Fatalf("JSON-only server must keep the fleet on JSON: %d/%d conns upgraded", v3, live)
	}
	if got := h.adverts.Load(); got != int64(live) {
		t.Fatalf("%d requests carried the %s advert over %d connections; only each connection's first may", got, wire.MetaWireCodec, live)
	}
}

// TestCodecMixedFleetJSONClientV3Server: the inverse — an old JSON
// client against a default server. The client never advertises, so the
// server must answer in JSON.
func TestCodecMixedFleetJSONClientV3Server(t *testing.T) {
	h := &echoHandler{}
	server := NewTCP()
	ln, err := server.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer server.Close()

	// Raw frame-level client: speaks only JSON, observes the exact
	// bytes the server sends back.
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	for i := 1; i <= 3; i++ {
		env := &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
			ID: uint64(i), Service: "echo", Method: "ping", Args: wire.Args{"i": i},
		}}
		if err := wire.WriteFrame(conn, env); err != nil {
			t.Fatal(err)
		}
		got, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if fr.LastCodec != wire.CodecJSON {
			t.Fatalf("response %d encoded as %s; a non-advertising client must get JSON", i, fr.LastCodec)
		}
		if got.Response == nil || got.Response.ID != uint64(i) || !got.Response.OK {
			t.Fatalf("response %d: %+v", i, got.Response)
		}
	}
}

// TestCodecAdvertisementTriggersV3Response pins the server half of the
// handshake at the frame level: a JSON request that carries the
// MetaWireCodec advertisement gets a v3-encoded response from a
// default server.
func TestCodecAdvertisementTriggersV3Response(t *testing.T) {
	h := &echoHandler{}
	server := NewTCP()
	ln, err := server.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	env := &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
		ID: 1, Service: "echo", Method: "ping",
		Args: wire.Args{"x": "y"},
		Meta: wire.Metadata{wire.MetaWireCodec: wire.WireCodecV3},
	}}
	if err := wire.WriteFrame(conn, env); err != nil { // JSON body + advert
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(conn)
	got, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if fr.LastCodec != wire.CodecV3 {
		t.Fatalf("response codec = %s, want v3 after advertisement", fr.LastCodec)
	}
	if got.Response == nil || !got.Response.OK || got.Response.ID != 1 {
		t.Fatalf("response: %+v", got.Response)
	}
}
