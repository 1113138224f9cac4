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
// fails as unreachable, written (not ErrNotSent), and is not sent again
// on another connection: the request is served once, never twice.
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
	if !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrNotSent) {
		t.Errorf("call to a server that dropped it: %v, want ErrUnreachable, written", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("the request was served %d times, want once", n)
	}
}

// TestTCPDialFailureIsNotSent: a call to a port nobody listens on fails
// before its request is written: unreachable and ErrNotSent, so a caller
// knows no peer can have served it.
func TestTCPDialFailureIsNotSent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	client := NewTCP()
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = client.Call(ctx, addr, &Request{Service: "s", Method: "m"})
	if !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrNotSent) {
		t.Fatalf("call to a closed port: %v, want ErrUnreachable and ErrNotSent", err)
	}
}
