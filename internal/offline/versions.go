package offline

import (
	"context"
	"sync"

	"repro/internal/store"
)

// versionsSchema tracks a per-entity monotonic version counter on the
// serving side: bumped on every local mutation, it is what lets a Pull
// skip unchanged entities entirely.
var versionsSchema = store.Schema{
	Name: "SyD_SyncVersions",
	Columns: []store.Column{
		{Name: "entity", Type: store.String},
		{Name: "ver", Type: store.Int},
	},
	Key: []string{"entity"},
}

// peerVersionsSchema is the puller's side of the version vector: the
// highest version of each remote entity this device has already
// applied, keyed per origin peer. Sending it with Pull makes unchanged
// rows cost zero bytes.
var peerVersionsSchema = store.Schema{
	Name: "SyD_SyncPeerVersions",
	Columns: []store.Column{
		{Name: "peer", Type: store.String},
		{Name: "entity", Type: store.String},
		{Name: "ver", Type: store.Int},
	},
	Key: []string{"peer", "entity"},
}

// Versions is the per-entity version table. Safe for concurrent use;
// durable when the DB is WAL-backed.
type Versions struct {
	mu sync.Mutex // a unit checks that a row exists, not what it read
	db *store.DB
	t  *store.Table
}

// NewVersions opens (or creates) the version table in db.
func NewVersions(db *store.DB) (*Versions, error) {
	t, err := db.EnsureTable(versionsSchema)
	if err != nil {
		return nil, err
	}
	return &Versions{db: db, t: t}, nil
}

// Bump increments entity's version and returns the new value.
func (v *Versions) Bump(ctx context.Context, entity string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var next int64
	_ = v.db.Unit(ctx, func(u *store.Tx) error {
		r := v.t.NewRow()
		if u.View(versionsSchema.Name, func(s store.Row) { next = s.Int("ver") + 1 }, entity) {
			r.SetInt("ver", next)
			return u.Update(versionsSchema.Name, r, entity)
		}
		next = 1
		r.SetStr("entity", entity)
		r.SetInt("ver", next)
		return u.Insert(versionsSchema.Name, r)
	})
	return next
}

// Get returns entity's current version (0 when never bumped).
func (v *Versions) Get(entity string) int64 {
	var ver int64
	v.t.View(func(r store.Row) { ver = r.Int("ver") }, entity)
	return ver
}

// All returns a copy of the full entity→version map.
func (v *Versions) All() map[string]int64 {
	out := make(map[string]int64, v.t.Count())
	v.t.ViewAll(func(r store.Row) { out[r.Str("entity")] = r.Int("ver") })
	return out
}
