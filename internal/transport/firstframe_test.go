package transport

import (
	"context"
	"encoding/binary"
	"io"
	"maps"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// formatVersion is the first body byte of every frame a transport sends:
// format v4's version byte.
const formatVersion = 0xB6

// readRawFrame reads a connection's first length-prefixed frame off r as
// it came off the socket and decodes it, so a test sees both the bytes
// and the envelope.
func readRawFrame(t *testing.T, r io.Reader) (body []byte, env *wire.Envelope) {
	t.Helper()
	var prefix []byte // a uvarint: read up to its last byte, none past it
	for len(prefix) == 0 || prefix[len(prefix)-1] >= 0x80 {
		var c [1]byte
		if _, err := io.ReadFull(r, c[:]); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, c[0])
	}
	n, _ := binary.Uvarint(prefix)
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	env, err := new(wire.Decoder).Decode(append(prefix, body...))
	if err != nil {
		t.Fatal(err)
	}
	return body, env
}

// writeV3 writes env to w as a connection's first v3 frame.
func writeV3(t *testing.T, w io.Writer, env *wire.Envelope) {
	t.Helper()
	f, err := new(wire.NameTable).EncodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if _, err := w.Write(f.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTCPSpeaksV3FromFirstFrame: a fresh connection carries v3 from its
// first frame in both directions, and a request arrives with exactly the
// metadata its caller gave it.
func TestTCPSpeaksV3FromFirstFrame(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		client := NewTCP()
		defer client.Close()

		meta := wire.Metadata{"tenant": "first-1"}
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := client.Call(ctx, ln.Addr().String(), &Request{
				Service: "echo", Method: "ping", Args: wire.Args{wire.Str("x", "y")}, Meta: maps.Clone(meta),
			})
			done <- err
		}()

		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		body, env := readRawFrame(t, conn)
		if body[0] != formatVersion {
			t.Errorf("first frame body starts with %#x, want the version byte %#x", body[0], formatVersion)
		}
		req := env.Request
		if req == nil {
			t.Fatalf("first frame is not a request: %+v", env)
		}
		if !maps.Equal(req.Meta, meta) {
			t.Errorf("first request metadata = %v, want exactly %v", req.Meta, meta)
		}
		writeV3(t, conn, &wire.Envelope{Kind: wire.KindResponse, Response: &wire.Response{ID: req.ID, OK: true}})
		if err := <-done; err != nil {
			t.Fatalf("call answered in v3: %v", err)
		}
	})

	t.Run("server", func(t *testing.T) {
		_, addr := newTCPPair(t, &echoHandler{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		writeV3(t, conn, &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
			ID: 1, Service: "echo", Method: "ping", Args: wire.Args{wire.Str("x", "y")},
		}})
		body, env := readRawFrame(t, conn)
		if body[0] != formatVersion {
			t.Fatalf("first response body starts with %#x, want the version byte %#x", body[0], formatVersion)
		}
		if resp := env.Response; resp == nil || resp.ID != 1 || !resp.OK {
			t.Fatalf("response: %+v", env)
		}
	})
}
