package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/store"
	"repro/internal/wire"
)

// SyDFleet is the second sample application the paper names (Fig. 2
// and reference [1], "Mobile Fleet Applications using SOAP and SyD
// Middleware Technologies"): vehicles carry independent data stores
// with their position and cargo; a dispatcher queries the fleet as a
// group through SyDEngine; a subscription link streams geofence alerts
// to the depot.
//
// Like the calendar, it is pure application code over the SyD kernel —
// it demonstrates that the kernel is not calendar-shaped.

// ServicePrefix prefixes a vehicle's fleet service name.
const ServicePrefix = "fleet."

// ServiceFor returns the fleet service name for a vehicle id.
func ServiceFor(id string) string { return ServicePrefix + id }

// PositionEntity is the link entity a vehicle's position changes fire
// on.
const PositionEntity = "position"

// stateTable holds a vehicle's one row, keyed "now".
const stateTable = "fleet_state"

// alertAction is the depot-side entity action geofence alerts invoke.
const alertAction = "fleet.geofenceAlert"

// Position is a vehicle's reported state.
type Position struct {
	Lat   float64 `json:"lat"`
	Lon   float64 `json:"lon"`
	Cargo string  `json:"cargo"`
}

// Distance is the Euclidean distance in degrees (adequate for the
// depot-radius geofence of the demo).
func Distance(aLat, aLon, bLat, bLon float64) float64 {
	return math.Hypot(aLat-bLat, aLon-bLon)
}

// Vehicle is one truck's device object.
type Vehicle struct {
	ID   string
	node *core.Node
	tab  *store.Table

	depot      string
	fenceLat   float64
	fenceLon   float64
	fenceRange float64
}

// NewVehicle attaches the fleet application to a kernel node at the
// given starting position.
func NewVehicle(ctx context.Context, node *core.Node, startLat, startLon float64) (*Vehicle, error) {
	tab, err := node.DB.CreateTable(store.Schema{
		Name: stateTable,
		Columns: []store.Column{
			{Name: "key", Type: store.String},
			{Name: "lat", Type: store.Float},
			{Name: "lon", Type: store.Float},
			{Name: "cargo", Type: store.String},
		},
		Key: []string{"key"},
	})
	if err != nil {
		return nil, err
	}
	r := tab.NewRow()
	r.SetStr("key", "now")
	r.SetFloat("lat", startLat)
	r.SetFloat("lon", startLon)
	r.SetStr("cargo", "")
	if err := node.DB.Unit(ctx, func(u *store.Tx) error { return u.Insert(stateTable, r) }); err != nil {
		return nil, err
	}
	v := &Vehicle{ID: node.User, node: node, tab: tab}

	obj := listener.NewObject()
	obj.Handle("Position", func(ctx context.Context, call *listener.Call) (any, error) {
		return v.Position(), nil
	})
	obj.Handle("Assign", func(ctx context.Context, call *listener.Call) (any, error) {
		cargo := call.Args.String("cargo")
		if cargo == "" {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "Assign needs cargo"}
		}
		ch := v.tab.NewRow()
		ch.SetStr("cargo", cargo)
		return true, v.update(ctx, ch)
	})
	if err := node.RegisterService(ctx, ServiceFor(v.ID), obj); err != nil {
		return nil, err
	}
	return v, nil
}

// update writes ch to the vehicle's state row in one unit.
func (v *Vehicle) update(ctx context.Context, ch store.Row) error {
	return v.node.DB.Unit(ctx, func(u *store.Tx) error { return u.Update(stateTable, ch, "now") })
}

// Position returns the current state.
func (v *Vehicle) Position() Position {
	var p Position
	v.tab.View(func(r store.Row) {
		p = Position{Lat: r.Float("lat"), Lon: r.Float("lon"), Cargo: r.Str("cargo")}
	}, "now")
	return p
}

// WatchGeofence installs the subscription link that reports this
// vehicle to the depot whenever MoveTo takes it further than radius
// from (lat, lon).
func (v *Vehicle) WatchGeofence(depot string, lat, lon, radius float64) error {
	v.depot, v.fenceLat, v.fenceLon, v.fenceRange = depot, lat, lon, radius
	l := &links.Link{
		ID: "geofence-" + v.ID, Type: links.Subscription, Subtype: links.Permanent,
		Owner:   links.EntityRef{User: v.ID, Entity: PositionEntity},
		Targets: []links.EntityRef{{User: depot, Entity: "alerts"}},
		Triggers: []links.Trigger{{
			Event: "outOfArea", Action: alertAction,
			Args: wire.Args{wire.Str("vehicle", v.ID)},
		}},
	}
	return v.node.Links.InstallAt(context.TODO(), v.ID, l)
}

// MoveTo updates the vehicle's position and fires the geofence link
// when the new position is outside the fence.
func (v *Vehicle) MoveTo(ctx context.Context, lat, lon float64) error {
	ch := v.tab.NewRow()
	ch.SetFloat("lat", lat)
	ch.SetFloat("lon", lon)
	if err := v.update(ctx, ch); err != nil {
		return err
	}
	if v.depot == "" {
		return nil
	}
	if Distance(lat, lon, v.fenceLat, v.fenceLon) > v.fenceRange {
		_, err := v.node.Links.TriggerEntity(ctx, PositionEntity, "outOfArea", wire.Args{
			wire.Float("lat", lat), wire.Float("lon", lon),
		})
		return err
	}
	return nil
}

// Alert is a geofence violation received by the depot.
type Alert struct {
	Vehicle string
	Lat     float64
	Lon     float64
}

// Depot is the dispatcher's application instance.
type Depot struct {
	node   *core.Node
	alerts chan Alert
}

// NewDepot attaches the dispatcher to a kernel node.
func NewDepot(node *core.Node) *Depot {
	d := &Depot{node: node, alerts: make(chan Alert, 64)}
	node.Links.RegisterAction(alertAction, links.Action{
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			a := Alert{Vehicle: args.String("vehicle")}
			_ = args.Decode("lat", &a.Lat) // an alert without a position still goes out
			_ = args.Decode("lon", &a.Lon)
			select {
			case d.alerts <- a:
			default: // drop when the depot is flooded
			}
			return nil
		},
	})
	return d
}

// Alerts exposes the geofence alert stream.
func (d *Depot) Alerts() <-chan Alert { return d.alerts }

// RegisterFleet creates (or extends) the directory group naming the
// fleet.
func (d *Depot) RegisterFleet(ctx context.Context, group string, vehicleIDs []string) error {
	return d.node.Dir.CreateGroup(ctx, group, vehicleIDs)
}

// FleetPositions group-invokes Position across the named fleet and
// returns per-vehicle states (unreachable vehicles are omitted;
// callers needing errors use the engine directly).
func (d *Depot) FleetPositions(ctx context.Context, group string) (map[string]Position, error) {
	results, err := d.node.Engine.InvokeGroupName(ctx, group, ServicePrefix+"%s", "Position", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Position, len(results))
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		var p Position
		if err := r.Decode(&p); err != nil {
			continue
		}
		out[r.Service[len(ServicePrefix):]] = p
	}
	return out, nil
}

// Assign gives cargo to the nearest free vehicle in the group and
// returns the chosen vehicle id.
func (d *Depot) Assign(ctx context.Context, group, cargo string, lat, lon float64) (string, error) {
	positions, err := d.FleetPositions(ctx, group)
	if err != nil {
		return "", err
	}
	type cand struct {
		id   string
		dist float64
	}
	var free []cand
	for id, p := range positions {
		if p.Cargo == "" {
			free = append(free, cand{id, Distance(p.Lat, p.Lon, lat, lon)})
		}
	}
	if len(free) == 0 {
		return "", &wire.RemoteError{Code: wire.CodeConflict, Msg: "fleet: no free vehicle"}
	}
	sort.Slice(free, func(i, j int) bool {
		if free[i].dist != free[j].dist {
			return free[i].dist < free[j].dist
		}
		return free[i].id < free[j].id
	})
	chosen := free[0].id
	err = d.node.Engine.Invoke(ctx, ServiceFor(chosen), "Assign", wire.Args{wire.Str("cargo", cargo)}, nil)
	if err != nil {
		return "", fmt.Errorf("fleet: assign to %s: %w", chosen, err)
	}
	return chosen, nil
}
