package offline

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// newTestManager builds a Manager whose directory has no server behind
// it — enough for the state machine, the gate, and servePull, none
// of which need a live deployment.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	net := sim.New(sim.Config{})
	cfg.User = "phil"
	cfg.DB = store.NewDB()
	cfg.Dir = directory.NewClient(net, "dir")
	cfg.Engine = engine.New(net, cfg.Dir, "phil")
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidatesConfig(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("want error for missing required config")
	}
}

func TestInterceptorFastFailsInLocalMode(t *testing.T) {
	// Admit is the engine's offline gate: an error from it fails the
	// call before it touches the network.
	m := newTestManager(t, Config{})
	if err := m.Admit("cal.andy", "GetFreeSlots"); err != nil {
		t.Fatalf("online admit: %v", err)
	}

	m.GoOffline(context.Background())
	if m.State() != StateOffline {
		t.Fatalf("state = %s, want offline", m.State())
	}
	err := m.Admit("cal.andy", "GetFreeSlots")
	if !IsLocalMode(err) {
		t.Fatalf("local-mode error = %v, want IsLocalMode", err)
	}
	if !strings.Contains(err.Error(), "cal.andy.GetFreeSlots") {
		t.Fatalf("error should name the blocked call: %v", err)
	}
}

func TestIsLocalModeRejectsOtherUnavailable(t *testing.T) {
	if IsLocalMode(&wire.RemoteError{Code: wire.CodeUnavailable, Msg: "partition between a and b"}) {
		t.Fatal("plain unavailable must not look like local mode")
	}
	if IsLocalMode(nil) {
		t.Fatal("nil is not local mode")
	}
}

func TestConsecutiveFailuresFlipOffline(t *testing.T) {
	met := metrics.NewRegistry()
	m := newTestManager(t, Config{Metrics: met})
	unavailable := &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "gone"}
	for i := 1; i < failureThreshold; i++ {
		m.NoteResult(unavailable)
	}
	if m.State() != StateOnline {
		t.Fatalf("state after %d failures = %s, want online", failureThreshold-1, m.State())
	}
	m.NoteResult(unavailable)
	if m.State() != StateOffline {
		t.Fatalf("state after %d failures = %s, want offline", failureThreshold, m.State())
	}
	m.NoteResult(unavailable)
	if e := met.Snapshot().Find(metrics.LayerSync, ServiceFor("phil"), "state.offline", ""); e == nil || e.Count != 1 {
		t.Fatalf("state.offline transitions = %+v, want 1", e)
	}
}

func TestNoteSuccessResetsFailureCount(t *testing.T) {
	m := newTestManager(t, Config{})
	for i := 1; i < failureThreshold; i++ {
		m.NoteFailure()
	}
	m.NoteSuccess()
	for i := 1; i < failureThreshold; i++ {
		m.NoteFailure()
	}
	if m.State() != StateOnline {
		t.Fatalf("state = %s, want online (success between failures resets the count)", m.State())
	}
	m.NoteFailure()
	if m.State() != StateOffline {
		t.Fatalf("state = %s, want offline", m.State())
	}
}

// mapApp is a fake application: docs keyed by entity, with an explicit
// relevance set per requester; it applies, replays and pulls nothing.
type mapApp struct {
	docs     map[string]string
	relevant map[string]map[string]bool
}

func (s *mapApp) Relevant(requester, entity string) bool { return s.relevant[requester][entity] }
func (s *mapApp) Snapshot(entity string) (json.RawMessage, bool) {
	d, ok := s.docs[entity]
	return json.RawMessage(d), ok
}
func (s *mapApp) Apply(string, int64, json.RawMessage) error { return nil }
func (s *mapApp) Replay(context.Context, Op) error           { return nil }
func (s *mapApp) Peers() []string                            { return nil }

func TestServePullFiltersByRelevanceAndVersion(t *testing.T) {
	met := metrics.NewRegistry()
	m := newTestManager(t, Config{Metrics: met})
	app := &mapApp{
		docs: map[string]string{
			"meeting:m1": `{"id":"m1"}`,
			"meeting:m2": `{"id":"m2"}`,
			"meeting:m3": `{"id":"m3"}`,
		},
		relevant: map[string]map[string]bool{
			"andy": {"meeting:m1": true, "meeting:m2": true},
		},
	}
	m.Attach(app)
	m.Versions().Bump(context.Background(), "meeting:m1")
	m.Versions().Bump(context.Background(), "meeting:m2")
	m.Versions().Bump(context.Background(), "meeting:m2") // m2 at version 2
	m.Versions().Bump(context.Background(), "meeting:m3")

	// First pull: andy has nothing; m3 is not relevant to andy.
	res := m.servePull(context.Background(), "andy", nil, false)
	if res.Total != 3 || res.Sent != 2 || res.Irrelevant != 1 || res.Unchanged != 0 {
		t.Fatalf("first pull = %+v", res)
	}

	// Second pull with an up-to-date vector: zero entities shipped.
	res = m.servePull(context.Background(), "andy", map[string]int64{"meeting:m1": 1, "meeting:m2": 2}, false)
	if res.Sent != 0 || res.Unchanged != 2 {
		t.Fatalf("caught-up pull = %+v, want 0 sent / 2 unchanged", res)
	}

	// A stale entry re-ships only the changed entity.
	res = m.servePull(context.Background(), "andy", map[string]int64{"meeting:m1": 1, "meeting:m2": 1}, false)
	if res.Sent != 1 || res.Entities[0].Entity != "meeting:m2" || res.Entities[0].Version != 2 {
		t.Fatalf("stale pull = %+v, want only meeting:m2@2", res)
	}

	// all=true bypasses relevance: the full-pull baseline ships m3 too.
	res = m.servePull(context.Background(), "andy", nil, true)
	if res.Sent != 3 || res.Irrelevant != 0 {
		t.Fatalf("full pull = %+v, want 3 sent", res)
	}

	if e := met.Snapshot().Find(metrics.LayerSync, ServiceFor("phil"), "Pull.serve", ""); e == nil || e.Count != 4 {
		t.Fatalf("Pull.serve metric = %+v, want count 4", e)
	}
}

func TestSyncObjectPullValidatesArgs(t *testing.T) {
	m := newTestManager(t, Config{})
	obj := m.SyncObject()
	if obj == nil {
		t.Fatal("nil sync object")
	}
	// EnqueueOp feeds the durable queue through the manager.
	if _, err := m.EnqueueOp(context.Background(), "schedule", "m1", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if m.Queue().Len() != 1 {
		t.Fatalf("queue len = %d, want 1", m.Queue().Len())
	}
}

// versionLog counts the rows of SyD_SyncPeerVersions the units a store
// logs write.
type versionLog struct{ writes atomic.Int64 }

func (*versionLog) LogDDLTable(store.Schema) store.Ack   { return nil }
func (*versionLog) LogDDLIndex(string, string) store.Ack { return nil }
func (l *versionLog) LogTx(ops []store.LoggedOp) store.Ack {
	for _, op := range ops {
		if op.Table == peerVersionsSchema.Name {
			l.writes.Add(1)
		}
	}
	return nil
}

// TestConcurrentKnownVersionsAllLand: pulls that record a peer entity's
// version at once, for an entity none of them has seen, all land: each
// is one logged write (the first an insert, the rest updates), and none
// fails for a rival's insert committed between its look and its write.
func TestConcurrentKnownVersionsAllLand(t *testing.T) {
	const writers, entities = 8, 50
	m := newTestManager(t, Config{})
	log := &versionLog{}
	m.db.SetLogger(log)
	errs := make(chan error, writers*entities)
	for e := 0; e < entities; e++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := m.setKnownVersion(context.Background(), "andy", fmt.Sprintf("e%d", e), int64(w)); err != nil {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Errorf("setKnownVersion: %v", err)
	}
	if got := log.writes.Load(); got != writers*entities {
		t.Fatalf("%d version writes logged, want %d: a racing write was lost", got, writers*entities)
	}
	if n := m.peerVers.Count(); n != entities {
		t.Fatalf("%d version rows, want %d", n, entities)
	}
}
