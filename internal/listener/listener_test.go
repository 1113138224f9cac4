package listener

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

func echoObject() *Object {
	obj := NewObject()
	obj.Handle("Echo", func(ctx context.Context, call *Call) (any, error) {
		return map[string]any{"caller": call.Caller, "x": call.Args.String("x")}, nil
	})
	obj.Handle("Fail", func(ctx context.Context, call *Call) (any, error) {
		return nil, errors.New("boom")
	})
	obj.Handle("Conflict", func(ctx context.Context, call *Call) (any, error) {
		return nil, &wire.RemoteError{Code: wire.CodeConflict, Msg: "slot taken"}
	})
	return obj
}

func TestDispatchAndResult(t *testing.T) {
	l := New("phil", nil)
	l.Register("cal.phil", echoObject())

	resp := l.HandleRequest(context.Background(), &transport.Request{
		ID: 1, Service: "cal.phil", Method: "Echo",
		Args: wire.Args{wire.Str("x", "hi")}, Caller: "andy",
	})
	if !resp.OK {
		t.Fatalf("resp = %+v", resp)
	}
	var out map[string]string
	if err := wire.Unmarshal(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != "hi" || out["caller"] != "andy" {
		t.Fatalf("out = %v", out)
	}
}

func TestUnknownServiceAndMethod(t *testing.T) {
	l := New("phil", nil)
	l.Register("cal.phil", echoObject())

	resp := l.HandleRequest(context.Background(), &transport.Request{Service: "nope", Method: "Echo"})
	if resp.OK || resp.Code != wire.CodeNoService {
		t.Fatalf("resp = %+v", resp)
	}
	resp = l.HandleRequest(context.Background(), &transport.Request{Service: "cal.phil", Method: "Nope"})
	if resp.OK || resp.Code != wire.CodeNoMethod {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestMethodErrorMapping(t *testing.T) {
	l := New("phil", nil)
	l.Register("cal.phil", echoObject())

	resp := l.HandleRequest(context.Background(), &transport.Request{Service: "cal.phil", Method: "Fail"})
	if resp.OK || resp.Code != wire.CodeInternal {
		t.Fatalf("plain error: %+v", resp)
	}
	resp = l.HandleRequest(context.Background(), &transport.Request{Service: "cal.phil", Method: "Conflict"})
	if resp.OK || resp.Code != wire.CodeConflict {
		t.Fatalf("typed error: %+v", resp)
	}
}

func TestAuthRequired(t *testing.T) {
	an := auth.NewAuthenticator("deploy-key")
	an.Table.Add("andy", "pw")
	l := New("phil", an)
	obj := echoObject()
	obj.RequireAuth = true
	l.Register("cal.phil", obj)

	// No credential.
	resp := l.HandleRequest(context.Background(), &transport.Request{
		Service: "cal.phil", Method: "Echo", Caller: "andy",
	})
	if resp.OK || resp.Code != wire.CodeAuth {
		t.Fatalf("no credential: %+v", resp)
	}

	// Valid credential; caller identity comes from the credential,
	// not the claimed Caller field.
	cred, err := an.Sealer.Seal("andy", "pw")
	if err != nil {
		t.Fatal(err)
	}
	resp = l.HandleRequest(context.Background(), &transport.Request{
		Service: "cal.phil", Method: "Echo", Caller: "someone-else",
		Credential: cred, Args: wire.Args{wire.Str("x", "hi")},
	})
	if !resp.OK {
		t.Fatalf("valid credential rejected: %+v", resp)
	}
	var out map[string]string
	if err := wire.Unmarshal(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["caller"] != "andy" {
		t.Fatalf("caller = %q, want authenticated identity", out["caller"])
	}

	// Wrong password.
	bad, err := an.Sealer.Seal("andy", "wrong")
	if err != nil {
		t.Fatal(err)
	}
	resp = l.HandleRequest(context.Background(), &transport.Request{
		Service: "cal.phil", Method: "Echo", Credential: bad,
	})
	if resp.OK || resp.Code != wire.CodeAuth {
		t.Fatalf("wrong password: %+v", resp)
	}
}

func TestAuthRequiredWithoutAuthenticator(t *testing.T) {
	l := New("phil", nil)
	obj := echoObject()
	obj.RequireAuth = true
	l.Register("cal.phil", obj)
	resp := l.HandleRequest(context.Background(), &transport.Request{Service: "cal.phil", Method: "Echo"})
	if resp.OK || resp.Code != wire.CodeAuth {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestRegisterReplaceUnregister(t *testing.T) {
	l := New("phil", nil)
	l.Register("cal.phil", echoObject())
	obj2 := NewObject().Handle("Only", func(ctx context.Context, call *Call) (any, error) { return 1, nil })
	l.Register("cal.phil", obj2)

	resp := l.HandleRequest(context.Background(), &transport.Request{Service: "cal.phil", Method: "Echo"})
	if resp.Code != wire.CodeNoMethod {
		t.Fatalf("replaced object still has old method: %+v", resp)
	}
	resp = l.HandleRequest(context.Background(), &transport.Request{Service: "cal.andy", Method: "Only"})
	if resp.Code != wire.CodeNoService {
		t.Fatalf("unregistered service answers: %+v", resp)
	}
}

func TestServicesAndMethodsSorted(t *testing.T) {
	l := New("phil", nil)
	l.Register("b", NewObject())
	l.Register("a", NewObject())
	if got := l.Services(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("services = %v", got)
	}
	obj := NewObject().
		Handle("Zed", func(ctx context.Context, c *Call) (any, error) { return nil, nil }).
		Handle("Alpha", func(ctx context.Context, c *Call) (any, error) { return nil, nil })
	if got := obj.Methods(); !reflect.DeepEqual(got, []string{"Alpha", "Zed"}) {
		t.Fatalf("methods = %v", got)
	}
}

func TestPublishGlobal(t *testing.T) {
	net := sim.New(sim.Config{})
	srv := directory.NewServer()
	ln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.NewClient(net, ln.Addr())

	l := New("phil", nil)
	l.Register("cal.phil", echoObject())
	nodeLn, err := net.Listen("node-phil", l)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := l.PublishGlobal(ctx, dir, "cal.phil", nodeLn.Addr()); err != nil {
		t.Fatal(err)
	}
	info, err := dir.LookupService(ctx, "cal.phil")
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != "node-phil" || info.Owner != "phil" {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Methods, []string{"Conflict", "Echo", "Fail"}) {
		t.Fatalf("methods = %v", info.Methods)
	}
	// Publishing an unregistered service fails.
	if err := l.PublishGlobal(ctx, dir, "nope", nodeLn.Addr()); err == nil {
		t.Fatal("published unknown service")
	}
}
