package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// countingWriter is a socket that counts what reaches it, or refuses.
type countingWriter struct {
	writes int
	bytes  int
	fail   error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.fail != nil {
		return 0, w.fail
	}
	w.bytes += len(p)
	return len(p), nil
}

// tick is a small request frame.
var tick = &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{Service: "tick"}}

func TestFrameWriterSequentialWritesOneSyscallEach(t *testing.T) {
	stats := &metrics.WireStats{}
	w := &countingWriter{}
	fw := &frameWriter{w: w, stats: stats}
	for i := 0; i < 5; i++ {
		if err := fw.writeEnvelope(tick); err != nil {
			t.Fatal(err)
		}
	}
	if s := stats.Snapshot(); s.Flushes != 5 || s.FramesSent != 5 || w.writes != 5 || int64(w.bytes) != s.BytesSent {
		t.Fatalf("sequential path: %+v, writer saw %d writes / %d bytes", s, w.writes, w.bytes)
	}
}

func TestFrameWriterWriteErrorIsTerminal(t *testing.T) {
	boom := errors.New("boom")
	w := &countingWriter{fail: boom}
	fw := &frameWriter{w: w, stats: &metrics.WireStats{}}
	if err := fw.writeEnvelope(tick); !errors.Is(err, boom) {
		t.Fatalf("first write err = %v, want boom", err)
	}
	// Later writers fail fast without touching the writer.
	if err := fw.writeEnvelope(tick); !errors.Is(err, boom) {
		t.Fatalf("second write err = %v, want boom", err)
	}
	if w.writes != 1 {
		t.Fatalf("writer saw %d writes, want 1", w.writes)
	}
}

// enteredConn reports each Write on its way into the socket.
type enteredConn struct {
	net.Conn
	entered chan struct{}
}

func (c *enteredConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	return c.Conn.Write(p)
}

// TestFailUnblocksWriterStuckInWrite: a connection's fail() closes the
// socket, which is what returns a writer blocked in Write (the peer of a
// net.Pipe never reads); writers queued behind it and every later one
// then fail without touching the socket.
func TestFailUnblocksWriterStuckInWrite(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &enteredConn{Conn: local, entered: make(chan struct{}, 16)}
	stats := &metrics.WireStats{}
	c := &tcpClientConn{conn: conn, w: &frameWriter{w: conn, stats: stats}, stats: stats, pending: make(map[uint64]chan *Response)}

	const writers = 4
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func() { errs <- c.w.writeEnvelope(tick) }()
	}
	<-conn.entered // one writer is inside Write; the rest wait for it
	c.fail()
	for i := 0; i < writers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a write on a failed connection reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("fail() left a writer blocked")
		}
	}
	if err := c.w.writeEnvelope(tick); err == nil {
		t.Error("a write after fail() reported success")
	}
	if n := len(conn.entered); n != 0 {
		t.Errorf("%d more writes reached the closed socket", n)
	}
}
