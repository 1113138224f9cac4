package transport

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

func traceMeta(i int) wire.Metadata {
	return wire.Metadata{
		trace.MetaTraceID:      fmt.Sprintf("%016x", 0xabc0+i),
		trace.MetaSpanID:       fmt.Sprintf("%016x", 0xdef0+i),
		trace.MetaParentSpanID: fmt.Sprintf("%016x", 0x1230+i),
		trace.MetaSampled:      "1",
	}
}

// TestTraceMetadataSurvivesCoalescedFrames hammers one TCP connection
// with concurrent calls and asserts every request's trace context
// arrives byte-identical, never smeared across the frames that shared
// the socket. (The name is from when concurrent frames shared a write.)
func TestTraceMetadataSurvivesCoalescedFrames(t *testing.T) {
	t.Run("v3", testTraceMetaConcurrent)
}

func testTraceMetaConcurrent(t *testing.T) {
	net, addr := newTCPPair(t, metaHandler{})
	ctx := context.Background()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			md := traceMeta(i)
			resp, err := net.Call(ctx, addr, &Request{
				Service: "echo", Method: "meta", Meta: maps.Clone(md),
			})
			if err != nil {
				errs[i] = err
				return
			}
			var seen Request
			if err := wire.Unmarshal(resp.Result, &seen); err != nil {
				errs[i] = err
				return
			}
			for _, key := range []string{trace.MetaTraceID, trace.MetaSpanID, trace.MetaParentSpanID, trace.MetaSampled} {
				if seen.Meta.Get(key) != md.Get(key) {
					errs[i] = fmt.Errorf("call %d: %s = %q, want %q", i, key, seen.Meta.Get(key), md.Get(key))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceMetadataSurvivesReconnect restarts the server so the cached
// client connection dies, waits for the client to see it die, then
// asserts the transparent reconnect path carries the trace context
// byte-identically too.
func TestTraceMetadataSurvivesReconnect(t *testing.T) {
	t.Run("v3", testTraceMetaReconnect)
}

func testTraceMetaReconnect(t *testing.T) {
	h := metaHandler{}
	net := NewTCP()
	defer net.Close()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()

	check := func(i int) {
		t.Helper()
		md := traceMeta(i)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := net.Call(ctx, addr, &Request{Service: "echo", Method: "meta", Meta: maps.Clone(md)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		var seen Request
		if err := wire.Unmarshal(resp.Result, &seen); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{trace.MetaTraceID, trace.MetaSpanID, trace.MetaParentSpanID, trace.MetaSampled} {
			if seen.Meta.Get(key) != md.Get(key) {
				t.Fatalf("call %d: %s = %q, want %q", i, key, seen.Meta.Get(key), md.Get(key))
			}
		}
	}

	check(0)
	ln.Close()
	awaitDead(t, net, addr)
	ln2, err := net.Listen(addr, h)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	check(1)
}
