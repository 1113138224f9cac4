package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/sim"
	"repro/internal/wire"
)

type world struct {
	t        *testing.T
	net      *sim.Net
	depot    *Depot
	vehicles map[string]*Vehicle
}

func newWorld(t *testing.T, vehicleIDs ...string) *world {
	t.Helper()
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	depotNode, err := core.Start(ctx, core.Config{User: "depot", Net: net, DirAddr: "dir"})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, net: net, depot: NewDepot(depotNode), vehicles: map[string]*Vehicle{}}
	for _, id := range vehicleIDs {
		node, err := core.Start(ctx, core.Config{User: id, Net: net, DirAddr: "dir"})
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewVehicle(ctx, node, 33.75, -84.39)
		if err != nil {
			t.Fatal(err)
		}
		w.vehicles[id] = v
	}
	if err := w.depot.RegisterFleet(ctx, "fleet", vehicleIDs); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFleetPositions(t *testing.T) {
	w := newWorld(t, "t1", "t2", "t3")
	positions, err := w.depot.FleetPositions(context.Background(), "fleet")
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != 3 {
		t.Fatalf("positions = %v", positions)
	}
	for id, p := range positions {
		if p.Lat != 33.75 || p.Lon != -84.39 || p.Cargo != "" {
			t.Fatalf("%s = %+v", id, p)
		}
	}
}

func TestFleetPositionsSkipsDownVehicle(t *testing.T) {
	w := newWorld(t, "t1", "t2")
	w.net.SetDown("node-t2", true)
	positions, err := w.depot.FleetPositions(context.Background(), "fleet")
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != 1 {
		t.Fatalf("positions = %v", positions)
	}
	if _, ok := positions["t1"]; !ok {
		t.Fatalf("t1 missing: %v", positions)
	}
}

func TestAssignNearestFree(t *testing.T) {
	w := newWorld(t, "t1", "t2")
	ctx := context.Background()
	// t2 is closer to the pickup point.
	if err := w.vehicles["t2"].MoveTo(ctx, 34.00, -84.39); err != nil {
		t.Fatal(err)
	}
	chosen, err := w.depot.Assign(ctx, "fleet", "pallets", 34.01, -84.39)
	if err != nil {
		t.Fatal(err)
	}
	if chosen != "t2" {
		t.Fatalf("chosen = %s", chosen)
	}
	if got := w.vehicles["t2"].Position().Cargo; got != "pallets" {
		t.Fatalf("cargo = %q", got)
	}
	// t2 is now loaded; the next assignment goes to t1 even though it
	// is further away.
	chosen, err = w.depot.Assign(ctx, "fleet", "crates", 34.01, -84.39)
	if err != nil {
		t.Fatal(err)
	}
	if chosen != "t1" {
		t.Fatalf("second chosen = %s", chosen)
	}
	// All loaded: no free vehicle.
	if _, err := w.depot.Assign(ctx, "fleet", "more", 0, 0); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
}

func TestGeofenceAlert(t *testing.T) {
	w := newWorld(t, "t1")
	ctx := context.Background()
	v := w.vehicles["t1"]
	if err := v.WatchGeofence("depot", 33.75, -84.39, 0.25); err != nil {
		t.Fatal(err)
	}
	// Inside the fence: no alert.
	if err := v.MoveTo(ctx, 33.80, -84.39); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.depot.Alerts():
		t.Fatalf("alert inside fence: %+v", a)
	default:
	}
	// Outside: alert with the violating position.
	if err := v.MoveTo(ctx, 34.20, -84.39); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.depot.Alerts():
		if a.Vehicle != "t1" || a.Lat != 34.20 {
			t.Fatalf("alert = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no alert")
	}
}

func TestAssignValidation(t *testing.T) {
	w := newWorld(t, "t1")
	_, err := w.depot.Assign(context.Background(), "ghost-fleet", "x", 0, 0)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("empty group assign: %v", err)
	}
}

// TestAssignedCargoShowsInPositions: an assignment is visible in the
// next positions report, on the vehicle it went to.
func TestAssignedCargoShowsInPositions(t *testing.T) {
	w := newWorld(t, "t1", "t2", "t3")
	ctx := context.Background()
	positions, err := w.depot.FleetPositions(ctx, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != 3 {
		t.Fatalf("positions = %v", positions)
	}
	id, err := w.depot.Assign(ctx, "fleet", "crates", 33.80, -84.39)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.vehicles[id]; !ok {
		t.Fatalf("assigned unknown vehicle %q", id)
	}
	positions, err = w.depot.FleetPositions(ctx, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	if positions[id].Cargo != "crates" {
		t.Fatalf("cargo lost: %+v", positions[id])
	}
}
