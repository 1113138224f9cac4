package offline

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// State is the manager's connectivity state.
type State string

// States. The machine is online → offline (send failures or explicit
// GoOffline) → syncing (the directory took us back online, session running) →
// online (session complete) — with syncing falling back to offline if
// the partition returns mid-session.
const (
	StateOnline  State = "online"
	StateOffline State = "offline"
	StateSyncing State = "syncing"
)

// IsLocalMode reports whether err is the offline gate's local-mode
// fast-fail — the caller's cue to park the operation in the op queue.
func IsLocalMode(err error) bool { return wire.ReasonOf(err) == wire.ReasonLocalMode }

// Config configures a Manager.
type Config struct {
	// User is the device's SyD identity (required).
	User string
	// DB is the node's store; the op queue and version tables live in
	// it, so they are WAL-backed whenever the node runs with
	// durability (required).
	DB *store.DB
	// Engine performs the reconnect session's RPCs (required).
	Engine *engine.Engine
	// Dir is the directory client that marks the device offline and
	// back online (required).
	Dir *directory.Client
	// Clock defaults to clock.System.
	Clock clock.Clock
	// QueueCap bounds the op queue (default 1024).
	QueueCap int
	// Metrics and Tracer are optional observability sinks.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// failureThreshold is how many consecutive unavailable sends flip the
// device to local mode.
const failureThreshold = 3

// Manager owns a device's disconnected-operation machinery: the state
// machine, the durable op queue, the version tables, and both halves
// of the sync session. Safe for concurrent use.
type Manager struct {
	user   string
	eng    *engine.Engine
	dir    *directory.Client
	clock  clock.Clock
	met    *metrics.Registry
	tracer *trace.Tracer

	db       *store.DB
	q        *Queue
	versions *Versions
	peerVers *store.Table

	state        atomic.Value // State
	failures     atomic.Int32
	reconnecting atomic.Bool

	mu  sync.Mutex
	app App
}

// NewManager builds a Manager over the node's store.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.User == "" || cfg.DB == nil || cfg.Engine == nil || cfg.Dir == nil {
		return nil, fmt.Errorf("offline: User, DB, Engine, and Dir are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	q, err := NewQueue(cfg.DB, cfg.User, cfg.QueueCap, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	vers, err := NewVersions(cfg.DB)
	if err != nil {
		return nil, err
	}
	pv, err := cfg.DB.EnsureTable(peerVersionsSchema)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		user:     cfg.User,
		eng:      cfg.Engine,
		dir:      cfg.Dir,
		clock:    cfg.Clock,
		met:      cfg.Metrics,
		tracer:   cfg.Tracer,
		db:       cfg.DB,
		q:        q,
		versions: vers,
		peerVers: pv,
	}
	m.state.Store(StateOnline)
	return m, nil
}

// State returns the current connectivity state.
func (m *Manager) State() State { return m.state.Load().(State) }

// Queue returns the outbound op queue.
func (m *Manager) Queue() *Queue { return m.q }

// Versions returns the local per-entity version table. The application
// bumps an entity's version on every local mutation.
func (m *Manager) Versions() *Versions { return m.versions }

// Attach wires the application the sync sessions run on.
func (m *Manager) Attach(app App) {
	m.mu.Lock()
	m.app = app
	m.mu.Unlock()
}

func (m *Manager) attached() App {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app
}

func (m *Manager) setState(s State) {
	if m.state.Swap(s) == s {
		return
	}
	m.observe("state."+string(s), "", 0)
}

// EnqueueOp parks an outbound op in the durable queue.
func (m *Manager) EnqueueOp(ctx context.Context, kind, id string, payload []byte) (int64, error) {
	return m.q.Enqueue(ctx, Op{ID: id, Kind: kind, Payload: payload, Queued: m.clock.Now()})
}

// GoOffline flips the device to local mode explicitly (the deliberate
// half of partition detection). The directory is told best-effort — if
// the network is already gone, liveness TTL expiry covers it.
func (m *Manager) GoOffline(ctx context.Context) {
	m.setState(StateOffline)
	_ = m.dir.SetOffline(ctx, m.user, true)
}

// NoteFailure records one unavailable send. After failureThreshold
// consecutive failures the device flips to local mode.
func (m *Manager) NoteFailure() {
	if m.failures.Add(1) >= failureThreshold && m.State() == StateOnline {
		m.setState(StateOffline)
	}
}

// NoteSuccess records a successful send, resetting failure detection.
func (m *Manager) NoteSuccess() { m.failures.Store(0) }

// Admit is the engine's offline gate: in local mode it fails every
// remote invocation at once, without touching the network.
func (m *Manager) Admit(service, method string) error {
	if m.State() == StateOffline {
		return &wire.RemoteError{Code: wire.CodeUnavailable, Reason: wire.ReasonLocalMode,
			Msg: fmt.Sprintf("offline: local mode: %s cannot reach %s.%s", m.user, service, method)}
	}
	return nil
}

// NoteResult feeds the outcome of an invocation the gate let out into
// partition detection: a success resets the failure count, an
// unavailable endpoint adds to it.
func (m *Manager) NoteResult(err error) {
	if err == nil {
		m.NoteSuccess()
	} else if engine.IsUnavailable(err) {
		m.NoteFailure()
	}
}

// TryReconnect probes the directory and, if reachable, runs the full
// two-way sync session: mark the device online, push queued ops, pull
// relevant state. The pull is what recovers updates peers could not
// deliver while the device was away. Single-flight: concurrent calls
// while a session runs are no-ops. Returns nil when already online.
func (m *Manager) TryReconnect(ctx context.Context) error {
	if m.State() == StateOnline {
		return nil
	}
	if !m.reconnecting.CompareAndSwap(false, true) {
		return nil
	}
	defer m.reconnecting.Store(false)
	start := m.clock.Now()
	ctx, span := m.tracer.StartSpan(ctx, "offline.reconnect")
	if err := m.dir.SetOffline(ctx, m.user, false); err != nil {
		span.FinishErr(err)
		m.observe("Reconnect", wire.CodeUnavailable, m.clock.Now().Sub(start))
		return err
	}
	m.setState(StateSyncing)
	if err := m.push(ctx); err != nil {
		m.abortSync(ctx, span, err)
		m.observe("Reconnect", wire.CodeUnavailable, m.clock.Now().Sub(start))
		return err
	}
	if err := m.pull(ctx); err != nil {
		m.abortSync(ctx, span, err)
		m.observe("Reconnect", wire.CodeUnavailable, m.clock.Now().Sub(start))
		return err
	}
	m.failures.Store(0)
	m.setState(StateOnline)
	span.Finish()
	m.observe("Reconnect", "", m.clock.Now().Sub(start))
	return nil
}

// abortSync returns to local mode after a mid-session failure and
// best-effort re-marks the directory record offline (we marked it
// online, but the session did not complete).
func (m *Manager) abortSync(ctx context.Context, span *trace.Span, err error) {
	m.setState(StateOffline)
	_ = m.dir.SetOffline(ctx, m.user, true)
	span.FinishErr(err)
}

// push drains the op queue in sequence order through the application's
// replayer. Each op that lands (or is definitively rejected) is acked
// out of the queue; an unavailable error aborts the session with the
// remaining ops still queued.
func (m *Manager) push(ctx context.Context) error {
	start := m.clock.Now()
	ctx, span := trace.Start(ctx, "sync.push")
	app := m.attached()
	ops := m.q.Ops()
	span.Annotate(trace.Int("ops", len(ops)))
	rejected := 0
	for _, op := range ops {
		if app != nil {
			if err := app.Replay(ctx, op); err != nil {
				if engine.IsUnavailable(err) {
					span.FinishErr(err)
					m.observe("Push", wire.CodeUnavailable, m.clock.Now().Sub(start))
					return err
				}
				// Definitive rejection: the op can never succeed
				// (malformed, permission). Shed it, but visibly.
				rejected++
				m.observe("queue.rejected", wire.CodeOf(err), 0)
			}
		}
		if err := m.q.Ack(ctx, op.Seq); err != nil {
			span.FinishErr(err)
			return err
		}
	}
	span.Annotate(trace.Int("rejected", rejected))
	span.Finish()
	m.observe("Push", "", m.clock.Now().Sub(start))
	return nil
}

// pull fetches relevant newer-than-known entities from every peer and
// applies them locally. A peer that is itself unreachable (or predates
// the sync service) is skipped — the next session covers it.
func (m *Manager) pull(ctx context.Context) error {
	start := m.clock.Now()
	ctx, span := trace.Start(ctx, "sync.pull")
	defer span.Finish()
	var peers []string
	app := m.attached()
	if app != nil {
		peers = app.Peers()
	}
	applied := 0
	for _, p := range peers {
		if p == m.user {
			continue
		}
		var res PullResult
		versions, _ := json.Marshal(m.knownVersions(p)) // a map of ints always marshals
		err := m.eng.Invoke(ctx, ServiceFor(p), "Pull", wire.Args{
			wire.Str("subscriber", m.user), wire.Raw("versions", versions),
		}, &res)
		if err != nil {
			continue
		}
		for _, e := range res.Entities {
			if err := app.Apply(e.Entity, e.Version, e.Doc); err != nil {
				continue
			}
			m.setKnownVersion(ctx, p, e.Entity, e.Version)
			applied++
		}
	}
	span.Annotate(trace.Int("peers", len(peers)), trace.Int("applied", applied))
	m.observe("Pull", "", m.clock.Now().Sub(start))
	return nil
}

// knownVersions returns the version vector this device holds for
// peer's entities.
func (m *Manager) knownVersions(peer string) map[string]int64 {
	out := map[string]int64{}
	m.peerVers.ViewEq("peer", peer, func(r store.Row) { out[r.Str("entity")] = r.Int("ver") })
	return out
}

func (m *Manager) setKnownVersion(ctx context.Context, peer, entity string, ver int64) {
	_ = m.db.Unit(ctx, func(u *store.Tx) error {
		r := m.peerVers.NewRow()
		r.SetInt("ver", ver)
		if u.Has(peerVersionsSchema.Name, peer, entity) {
			return u.Update(peerVersionsSchema.Name, r, peer, entity)
		}
		r.SetStr("peer", peer)
		r.SetStr("entity", entity)
		return u.Insert(peerVersionsSchema.Name, r)
	})
}
