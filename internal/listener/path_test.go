package listener

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestMiddlewareSeesClaimedCallerBeforeAuth(t *testing.T) {
	// The caller claims one identity and seals another: the method sees
	// the authenticated one.
	an := auth.NewAuthenticator("deploy-key")
	an.Table.Add("andy", "pw")

	l := New("phil", an)
	obj := echoObject()
	obj.RequireAuth = true
	l.Register("cal.phil", obj)

	cred, err := an.Sealer.Seal("andy", "pw")
	if err != nil {
		t.Fatal(err)
	}
	resp := l.HandleRequest(context.Background(), &transport.Request{
		Service: "cal.phil", Method: "Echo", Caller: "someone-else", Credential: cred,
	})
	if !resp.OK {
		t.Fatalf("resp = %+v", resp)
	}
	var out map[string]string
	if err := wire.Unmarshal(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["caller"] != "andy" {
		t.Fatalf("method saw %q, want the authenticated identity", out["caller"])
	}
}

// TestServerPathOrder: observe is outermost, so a request the fence
// turns away and one auth rejects are each counted in the LayerServer
// series with their codes; the fence runs before auth, so it turns a
// request away whatever its credential; and a request both admit
// reaches the method with its authenticated caller.
func TestServerPathOrder(t *testing.T) {
	an := auth.NewAuthenticator("deploy-key")
	an.Table.Add("andy", "pw")
	cred, err := an.Sealer.Seal("andy", "pw")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	l := New("phil", an, WithMetrics(reg))
	obj := echoObject()
	obj.RequireAuth = true
	l.Register("cal.phil", obj)
	fenced := true
	l.SetFence(func(service string) error {
		if fenced {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "fenced"}
		}
		return nil
	})
	ctx := context.Background()

	if resp := l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Echo", Credential: "garbage"}); resp.Code != wire.CodeUnavailable {
		t.Fatalf("fenced request = %+v, want the fence's answer", resp)
	}
	fenced = false
	if resp := l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Echo", Credential: "garbage"}); resp.Code != wire.CodeAuth {
		t.Fatalf("bad credential = %+v, want an auth rejection", resp)
	}
	resp := l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Echo", Caller: "someone-else", Credential: cred})
	var out map[string]string
	if err := wire.Unmarshal(resp.Result, &out); err != nil || !resp.OK || out["caller"] != "andy" {
		t.Fatalf("admitted request = %+v (%v), want the method to see andy", resp, err)
	}

	snap := reg.Snapshot()
	for _, code := range []wire.ErrCode{wire.CodeUnavailable, wire.CodeAuth, ""} {
		if e := snap.Find(metrics.LayerServer, "cal.phil", "Echo", code); e == nil || e.Count != 1 {
			t.Fatalf("Echo series with code %q = %+v, want one request", code, e)
		}
	}
}

func TestMetricsMiddlewareRecordsServerSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New("phil", nil, WithMetrics(reg))
	l.Register("cal.phil", echoObject())
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if resp := l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Echo"}); !resp.OK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Conflict"})
	l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Missing"})

	snap := reg.Snapshot()
	if e := snap.Find(metrics.LayerServer, "cal.phil", "Echo", ""); e == nil || e.Count != 2 {
		t.Fatalf("Echo series = %+v", e)
	}
	if e := snap.Find(metrics.LayerServer, "cal.phil", "Conflict", wire.CodeConflict); e == nil || e.Count != 1 {
		t.Fatalf("Conflict series = %+v", e)
	}
	// Unknown methods still take the path and get counted.
	if e := snap.Find(metrics.LayerServer, "cal.phil", "Missing", wire.CodeNoMethod); e == nil || e.Count != 1 {
		t.Fatalf("Missing series = %+v", e)
	}
}

// TestResponseCarriesNoMetadata: a response has no metadata field, so
// nothing a request brings comes back; an OK response carries its result
// and none of a refusal's fields, and a refused one no result, on every
// error path. A caller correlates a reply on its frame ID.
func TestResponseCarriesNoMetadata(t *testing.T) {
	l := New("phil", nil)
	l.Register("cal.phil", echoObject())
	for _, target := range [][2]string{
		{"cal.phil", "Echo"}, {"cal.phil", "Fail"}, {"cal.phil", "Conflict"},
		{"cal.phil", "Nope"}, {"nope", "Echo"},
	} {
		req := &transport.Request{Service: target[0], Method: target[1], Meta: wire.Metadata{"tenant": "acme"}}
		req.SetDeadline(time.Second)
		resp := l.HandleRequest(context.Background(), req)
		noResult := reflect.DeepEqual(resp.Result, wire.Value{})
		if ok := target[1] == "Echo" && target[0] == "cal.phil"; resp.OK != ok ||
			ok && (noResult || resp.Error != "" || resp.Code != "" || resp.Reason != "") || !ok && !noResult {
			t.Errorf("%s.%s: %+v", target[0], target[1], resp)
		}
	}
}

func TestIntrospectionObject(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New("phil", nil, WithMetrics(reg))
	l.Register("cal.phil", echoObject())
	l.Register("sys.phil", Introspection(l, reg, nil))
	ctx := context.Background()

	// Generate one observation, then inspect through the service itself.
	if resp := l.HandleRequest(ctx, &transport.Request{Service: "cal.phil", Method: "Echo"}); !resp.OK {
		t.Fatalf("resp = %+v", resp)
	}

	resp := l.HandleRequest(ctx, &transport.Request{Service: "sys.phil", Method: "Services"})
	if !resp.OK {
		t.Fatalf("Services: %+v", resp)
	}
	var services []string
	if err := wire.Unmarshal(resp.Result, &services); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(services) != fmt.Sprint([]string{"cal.phil", "sys.phil"}) {
		t.Fatalf("services = %v", services)
	}

	resp = l.HandleRequest(ctx, &transport.Request{
		Service: "sys.phil", Method: "Methods", Args: wire.Args{wire.Str("service", "cal.phil")},
	})
	if !resp.OK {
		t.Fatalf("Methods: %+v", resp)
	}
	var methods []string
	if err := wire.Unmarshal(resp.Result, &methods); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(methods) != fmt.Sprint([]string{"Conflict", "Echo", "Fail"}) {
		t.Fatalf("methods = %v", methods)
	}
	resp = l.HandleRequest(ctx, &transport.Request{
		Service: "sys.phil", Method: "Methods", Args: wire.Args{wire.Str("service", "ghost")},
	})
	if resp.OK || resp.Code != wire.CodeNoService {
		t.Fatalf("Methods(ghost): %+v", resp)
	}

	resp = l.HandleRequest(ctx, &transport.Request{Service: "sys.phil", Method: "Metrics"})
	if !resp.OK {
		t.Fatalf("Metrics: %+v", resp)
	}
	var snap metrics.Snapshot
	if err := wire.Unmarshal(resp.Result, &snap); err != nil {
		t.Fatal(err)
	}
	if e := snap.Find(metrics.LayerServer, "cal.phil", "Echo", ""); e == nil || e.Count != 1 {
		t.Fatalf("introspected snapshot = %+v", snap)
	}
}
