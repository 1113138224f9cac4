package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// blockingWriter simulates a socket whose syscalls take real time, so
// concurrent writers pile up behind the in-flight flush.
type blockingWriter struct {
	mu     sync.Mutex
	delay  time.Duration
	writes int
	bytes  int
	fail   error
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func TestCoalescerBatchesConcurrentWriters(t *testing.T) {
	stats := &metrics.WireStats{}
	w := &blockingWriter{delay: 2 * time.Millisecond}
	c := newCoalescer(w, stats)

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.write([]byte("frame-payload")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	s := stats.Snapshot()
	if s.FramesSent != n {
		t.Fatalf("framesSent = %d, want %d", s.FramesSent, n)
	}
	if s.Flushes >= n {
		t.Fatalf("flushes = %d: every frame paid its own syscall", s.Flushes)
	}
	if s.BatchMax < 2 {
		t.Fatalf("batchMax = %d: writers never shared a flush", s.BatchMax)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bytes != n*len("frame-payload") {
		t.Fatalf("wrote %d bytes, want %d", w.bytes, n*len("frame-payload"))
	}
	if int64(w.writes) != s.Flushes {
		t.Fatalf("writer saw %d writes, stats counted %d flushes", w.writes, s.Flushes)
	}
}

func TestCoalescerSequentialWritesOneSyscallEach(t *testing.T) {
	stats := &metrics.WireStats{}
	w := &blockingWriter{}
	c := newCoalescer(w, stats)
	for i := 0; i < 5; i++ {
		if _, err := c.write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s := stats.Snapshot(); s.Flushes != 5 || s.FramesSent != 5 {
		t.Fatalf("sequential path: %+v", s)
	}
}

func TestCoalescerWriteErrorIsTerminal(t *testing.T) {
	boom := errors.New("boom")
	w := &blockingWriter{fail: boom}
	c := newCoalescer(w, &metrics.WireStats{})
	if _, err := c.write([]byte("a")); !errors.Is(err, boom) {
		t.Fatalf("first write err = %v, want boom", err)
	}
	// Later writers fail fast without touching the writer.
	if _, err := c.write([]byte("b")); !errors.Is(err, boom) {
		t.Fatalf("second write err = %v, want boom", err)
	}
}

func TestCoalescerFailWakesWaiters(t *testing.T) {
	w := &blockingWriter{delay: 50 * time.Millisecond}
	c := newCoalescer(w, &metrics.WireStats{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.write([]byte("frame"))
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the leader enter its flush
	c.fail(ErrUnreachable)
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if errors.Is(err, ErrUnreachable) {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("fail() never surfaced to any waiter")
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
	c := &tcpClientConn{conn: conn, w: newCoalescer(conn, stats), stats: stats, pending: make(map[uint64]chan *Response)}

	const writers = 4
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func() {
			_, err := c.w.write([]byte("frame"))
			errs <- err
		}()
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
	if _, err := c.w.write([]byte("late")); err == nil {
		t.Error("a write after fail() reported success")
	}
	if n := len(conn.entered); n != 0 {
		t.Errorf("%d more writes reached the closed socket", n)
	}
}
