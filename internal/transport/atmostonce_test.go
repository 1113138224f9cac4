package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTCPWrittenRequestIsNotResent: a server that reads a request and
// drops the connection without answering may have served it, so the call
// fails as unreachable and is not sent again on another connection: the
// request is served once, never twice.
func TestTCPWrittenRequestIsNotResent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if _, err := wire.NewFrameReader(conn).Read(); err == nil {
					served.Add(1)
				}
			}()
		}
	}()

	client := NewTCP()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = client.Call(ctx, ln.Addr().String(), &Request{Service: "s", Method: "m"})
	client.Close()
	ln.Close()
	wg.Wait()
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to a server that dropped it: %v, want ErrUnreachable", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("the request was served %d times, want once", n)
	}
}
