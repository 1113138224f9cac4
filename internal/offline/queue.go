// Package offline implements disconnected operation (paper §5.2, §7):
// a device that loses the network keeps serving local calendar reads
// and keeps *accepting* writes, parking them in a durable outbound op
// queue. On reconnect it runs a two-way sync session over the
// sync.<user> RPC object — replaying queued ops through the normal
// coordination-link machinery (so conflicting bookings reconcile via
// tentative-link priority promotion, not ad-hoc merge code) and pulling
// only the peers' entities that are relevant to it, filtered
// server-side with per-entity version vectors so unchanged rows cost
// zero bytes (the data-relevance sync model of PAPERS.md).
package offline

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wire"
)

// opsSchema is the durable op-queue table. It lives in the node's own
// store DB, so with core.Config.DataDir every enqueue/ack is logged to
// the WAL and the queue survives a crash mid-disconnect.
var opsSchema = store.Schema{
	Name: "SyD_OfflineOps",
	Columns: []store.Column{
		{Name: "seq", Type: store.Int},
		{Name: "id", Type: store.String},
		{Name: "kind", Type: store.String},
		{Name: "payload", Type: store.String},
		{Name: "queued", Type: store.Time},
	},
	Key: []string{"seq"},
}

// Op is one queued outbound operation.
type Op struct {
	// Seq orders ops; assigned by Enqueue.
	Seq int64
	// ID is the op's idempotency key (e.g. a pre-minted meeting id) so
	// a replay interrupted mid-drain can be retried without double
	// effect.
	ID string
	// Kind names the application operation ("schedule", "cancel", ...).
	Kind string
	// Payload is the kind-specific document (JSON).
	Payload []byte
	// Queued is when the op was accepted.
	Queued time.Time
}

// Queue is the durable, bounded outbound op queue. Safe for concurrent
// use.
type Queue struct {
	user string
	db   *store.DB
	t    *store.Table
	met  *metrics.Registry

	mu      sync.Mutex
	nextSeq int64
	cap     int
}

// NewQueue opens (or creates) the op-queue table in db. capacity <= 0
// defaults to 1024. Reopening over a recovered DB resumes the sequence
// after the highest surviving op.
func NewQueue(db *store.DB, user string, capacity int, met *metrics.Registry) (*Queue, error) {
	if capacity <= 0 {
		capacity = 1024
	}
	t, err := db.EnsureTable(opsSchema)
	if err != nil {
		return nil, err
	}
	q := &Queue{user: user, db: db, t: t, met: met, cap: capacity}
	t.ViewAll(func(r store.Row) { q.nextSeq = max(q.nextSeq, r.Int("seq")+1) })
	return q, nil
}

// Enqueue accepts an op and returns the assigned sequence number. A
// full queue refuses the op with CodeUnavailable: every op already in
// it was acknowledged to its caller, so none is given up for a new one.
func (q *Queue) Enqueue(ctx context.Context, op Op) (int64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.t.Count() >= q.cap {
		q.observe("queue.reject")
		return 0, &wire.RemoteError{Code: wire.CodeUnavailable,
			Msg: fmt.Sprintf("offline: %s op queue full (%d ops)", q.user, q.cap)}
	}
	seq := q.nextSeq
	q.nextSeq++
	err := q.db.Unit(ctx, func(u *store.Tx) error {
		r := q.t.NewRow()
		r.SetInt("seq", seq)
		r.SetStr("id", op.ID)
		r.SetStr("kind", op.Kind)
		r.SetStr("payload", string(op.Payload))
		r.SetTime("queued", op.Queued)
		return u.Insert(opsSchema.Name, r)
	})
	if err != nil {
		return 0, err
	}
	q.observe("queue.enqueue")
	return seq, nil
}

// Ops returns all queued ops in sequence order.
func (q *Queue) Ops() []Op {
	out := make([]Op, 0, q.t.Count())
	q.t.ViewAll(func(r store.Row) {
		out = append(out, Op{
			Seq:     r.Int("seq"),
			ID:      r.Str("id"),
			Kind:    r.Str("kind"),
			Payload: []byte(r.Str("payload")),
			Queued:  r.Time("queued"),
		})
	})
	slices.SortFunc(out, func(a, b Op) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Ack removes a drained op.
func (q *Queue) Ack(ctx context.Context, seq int64) error {
	if err := q.db.Unit(ctx, func(u *store.Tx) error { return u.Delete(opsSchema.Name, seq) }); err != nil {
		return err
	}
	q.observe("queue.drain")
	return nil
}

// Len returns the number of queued ops.
func (q *Queue) Len() int { return q.t.Count() }

func (q *Queue) observe(what string) {
	if q.met != nil {
		q.met.Observe(metrics.LayerSync, ServiceFor(q.user), what, "", 0)
	}
}
