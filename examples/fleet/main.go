// SyDFleet — the second sample application named in the paper's Fig. 2
// (and reference [1]): vehicles carry independent data stores with
// their position and cargo; the dispatcher queries the fleet as a
// group through SyDEngine; a subscription link streams geofence alerts
// back to the depot — no vehicle knows about any other.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/sim"
)

func main() {
	ctx := context.Background()
	net := sim.New(sim.Config{})
	dirSrv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", dirSrv.Handler()); err != nil {
		log.Fatal(err)
	}

	depotNode, err := core.Start(ctx, core.Config{User: "depot", Net: net, DirAddr: "dir"})
	if err != nil {
		log.Fatal(err)
	}
	depot := NewDepot(depotNode)

	const depotLat, depotLon = 33.75, -84.39
	ids := []string{"truck1", "truck2", "truck3"}
	vehicles := map[string]*Vehicle{}
	for _, id := range ids {
		node, err := core.Start(ctx, core.Config{User: id, Net: net, DirAddr: "dir"})
		if err != nil {
			log.Fatal(err)
		}
		v, err := NewVehicle(ctx, node, depotLat, depotLon)
		if err != nil {
			log.Fatal(err)
		}
		if err := v.WatchGeofence("depot", depotLat, depotLon, 0.25); err != nil {
			log.Fatal(err)
		}
		vehicles[id] = v
	}
	if err := depot.RegisterFleet(ctx, "fleet", ids); err != nil {
		log.Fatal(err)
	}

	positions, err := depot.FleetPositions(ctx, "fleet")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fleet positions:")
	for _, id := range ids {
		p := positions[id]
		fmt.Printf("  %-8s lat=%.2f lon=%.2f cargo=%q\n", id, p.Lat, p.Lon, p.Cargo)
	}

	chosen, err := depot.Assign(ctx, "fleet", "pallets", depotLat, depotLon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assigned pallets to %s\n", chosen)

	// The loaded truck drives off; crossing the geofence fires its
	// subscription link and the depot gets the alert.
	for step := 1; step <= 4; step++ {
		if err := vehicles[chosen].MoveTo(ctx, depotLat+0.1*float64(step), depotLon); err != nil {
			log.Fatal(err)
		}
	}
	select {
	case a := <-depot.Alerts():
		fmt.Printf("depot alert: vehicle %s left the service area (%.2f,%.2f)\n", a.Vehicle, a.Lat, a.Lon)
	case <-time.After(2 * time.Second):
		log.Fatal("no geofence alert arrived")
	}
}
