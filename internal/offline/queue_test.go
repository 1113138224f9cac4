package offline

import (
	"context"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

var bg = context.Background()

func TestQueueEnqueueOrderAndAck(t *testing.T) {
	q, err := NewQueue(store.NewDB(), "phil", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.cap != 10 {
		t.Fatalf("cap = %d, want 10", q.cap)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := q.Enqueue(bg, Op{ID: id, Kind: "schedule", Payload: []byte("{}"), Queued: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	ops := q.Ops()
	if len(ops) != 3 {
		t.Fatalf("len = %d, want 3", len(ops))
	}
	for i, want := range []string{"a", "b", "c"} {
		if ops[i].ID != want || ops[i].Seq != int64(i) {
			t.Fatalf("ops[%d] = %+v, want id %s seq %d", i, ops[i], want, i)
		}
	}
	if err := q.Ack(bg, ops[0].Seq); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("len after ack = %d, want 2", q.Len())
	}
	if got := q.Ops()[0].ID; got != "b" {
		t.Fatalf("head after ack = %s, want b", got)
	}
}

func TestQueueRejectNewAtCapacity(t *testing.T) {
	met := metrics.NewRegistry()
	q, err := NewQueue(store.NewDB(), "phil", 2, met)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(bg, Op{ID: "a"})
	q.Enqueue(bg, Op{ID: "b"})
	if _, err := q.Enqueue(bg, Op{ID: "c"}); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("overflow error = %v, want CodeUnavailable", err)
	}
	if q.Len() != 2 || q.Ops()[0].ID != "a" {
		t.Fatalf("queue mutated by rejected enqueue: %+v", q.Ops())
	}
	if e := met.Snapshot().Find(metrics.LayerSync, ServiceFor("phil"), "queue.reject", ""); e == nil || e.Count != 1 {
		t.Fatalf("queue.reject metric = %+v, want count 1", e)
	}
}

func TestQueueReopenResumesSequence(t *testing.T) {
	db := store.NewDB()
	q1, err := NewQueue(db, "phil", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q1.Enqueue(bg, Op{ID: "a"})
	q1.Enqueue(bg, Op{ID: "b"})
	q1.Ack(bg, 0)

	q2, err := NewQueue(db, "phil", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := q2.Enqueue(bg, Op{ID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq after reopen = %d, want 2 (must not reuse acked sequence numbers)", seq)
	}
}

func TestQueueSurvivesWALRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(d.DB, "phil", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(bg, Op{ID: "a", Kind: "schedule", Payload: []byte(`{"title":"x"}`), Queued: time.Now()})
	q.Enqueue(bg, Op{ID: "b", Kind: "cancel"})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	q2, err := NewQueue(d2.DB, "phil", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := q2.Ops()
	if len(ops) != 2 || ops[0].ID != "a" || ops[1].ID != "b" {
		t.Fatalf("recovered ops = %+v, want [a b]", ops)
	}
	if string(ops[0].Payload) != `{"title":"x"}` {
		t.Fatalf("payload lost in recovery: %q", ops[0].Payload)
	}
	if seq, _ := q2.Enqueue(bg, Op{ID: "c"}); seq != 2 {
		t.Fatalf("seq after recovery = %d, want 2", seq)
	}
}

func TestVersions(t *testing.T) {
	db := store.NewDB()
	v, err := NewVersions(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Get("meeting:m1"); got != 0 {
		t.Fatalf("unbumped version = %d, want 0", got)
	}
	if got := v.Bump(bg, "meeting:m1"); got != 1 {
		t.Fatalf("first bump = %d, want 1", got)
	}
	if got := v.Bump(bg, "meeting:m1"); got != 2 {
		t.Fatalf("second bump = %d, want 2", got)
	}
	v.Bump(bg, "meeting:m2")
	all := v.All()
	if len(all) != 2 || all["meeting:m1"] != 2 || all["meeting:m2"] != 1 {
		t.Fatalf("All() = %v", all)
	}

	// A reopened Versions over the same DB sees the same counters.
	v2, err := NewVersions(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Get("meeting:m1"); got != 2 {
		t.Fatalf("reopened version = %d, want 2", got)
	}
}
