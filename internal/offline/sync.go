package offline

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ServicePrefix prefixes the per-user sync service name.
const ServicePrefix = "sync."

// ServiceFor returns the sync service name of user.
func ServiceFor(user string) string { return ServicePrefix + user }

// EntityDoc is one entity in a Pull response.
type EntityDoc struct {
	Entity  string          `json:"entity"`
	Version int64           `json:"version"`
	Doc     json.RawMessage `json:"doc,omitempty"`
}

// PullResult is the server's answer to a Pull: the relevant entities
// newer than the caller's version vector, plus accounting that shows
// what the relevance predicate and the version filter saved.
type PullResult struct {
	Entities []EntityDoc `json:"entities,omitempty"`
	// Total is how many entities the server holds; Sent how many were
	// shipped; Unchanged how many the caller's version vector skipped;
	// Irrelevant how many the relevance predicate filtered out.
	Total      int `json:"total"`
	Sent       int `json:"sent"`
	Unchanged  int `json:"unchanged"`
	Irrelevant int `json:"irrelevant"`
}

// App is the application a device's sync sessions run on: the calendar
// implements it over its meeting records.
type App interface {
	// Relevant reports whether entity concerns requester (the
	// relevance predicate: entities the requester owns, participates
	// in, or subscribes to).
	Relevant(requester, entity string) bool
	// Snapshot returns entity's current document, for the sync server.
	Snapshot(entity string) (json.RawMessage, bool)
	// Apply lands an entity document pulled on reconnect.
	Apply(entity string, version int64, doc json.RawMessage) error
	// Replay replays one queued op during the push phase.
	Replay(ctx context.Context, op Op) error
	// Peers lists the users a reconnect session pulls from (those this
	// device shares meetings or links with).
	Peers() []string
}

// SyncObject builds the sync.<user> RPC object: the server half of a
// reconnect session. Pull is relevance- and version-filtered; State
// exposes the manager for introspection and tests.
func (m *Manager) SyncObject() *listener.Object {
	obj := listener.NewObject()
	obj.Handle("Pull", func(ctx context.Context, call *listener.Call) (any, error) {
		sub := call.Args.String("subscriber")
		if sub == "" {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "Pull needs a subscriber"}
		}
		have := map[string]int64{}
		if call.Args.Has("versions") {
			if err := call.Args.Decode("versions", &have); err != nil {
				return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "bad versions vector: " + err.Error()}
			}
		}
		return m.servePull(ctx, sub, have, call.Args.Bool("all")), nil
	})
	obj.Handle("State", func(ctx context.Context, call *listener.Call) (any, error) {
		return map[string]any{
			"state":  string(m.State()),
			"queued": m.Queue().Len(),
		}, nil
	})
	return obj
}

// servePull filters this device's entities for subscriber: the
// relevance predicate drops entities that don't concern it (unless the
// caller asked for everything), and the version vector drops entities
// it already has — those cost zero payload bytes.
func (m *Manager) servePull(ctx context.Context, subscriber string, have map[string]int64, all bool) *PullResult {
	start := m.clock.Now()
	_, span := trace.Start(ctx, "sync.pull.serve")
	res := &PullResult{}
	app := m.attached()
	for entity, ver := range m.versions.All() {
		res.Total++
		if !all && (app == nil || !app.Relevant(subscriber, entity)) {
			res.Irrelevant++
			continue
		}
		if have[entity] >= ver {
			res.Unchanged++
			continue
		}
		if app == nil {
			continue
		}
		doc, ok := app.Snapshot(entity)
		if !ok {
			continue
		}
		res.Entities = append(res.Entities, EntityDoc{Entity: entity, Version: ver, Doc: doc})
		res.Sent++
	}
	span.Annotate(
		trace.String("subscriber", subscriber),
		trace.Int("sent", res.Sent),
		trace.Int("unchanged", res.Unchanged),
		trace.Int("irrelevant", res.Irrelevant),
	)
	span.Finish()
	m.observe("Pull.serve", "", m.clock.Now().Sub(start))
	return res
}

func (m *Manager) observe(method string, code wire.ErrCode, d time.Duration) {
	if m.met != nil {
		m.met.Observe(metrics.LayerSync, ServiceFor(m.user), method, code, d)
	}
}
