package calendar

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/notify"
	"repro/internal/proxy"
	"repro/internal/store"
	"repro/internal/transport"
)

// Checkpoint serializes the calendar's full device state (slots,
// meetings, and the link database — they live in the same store) for
// transfer to a proxy (§5.2: "the database server could potentially be
// placed on the proxy").
func (c *Calendar) Checkpoint() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.db.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the calendar's state from a checkpoint produced by
// the proxy during adoption. Because store snapshots restore into a
// fresh DB, Restore copies rows table-by-table into the live tables.
func (c *Calendar) Restore(ctx context.Context, snapshot []byte) error {
	restored := store.NewDB()
	if err := restored.Restore(bytes.NewReader(snapshot)); err != nil {
		return err
	}
	// Clear and refill, as one unit: a crash leaves the device with the
	// state it had or the state the proxy kept for it.
	return c.db.Unit(ctx, func(u *store.Tx) error {
		for _, name := range restored.TableNames() {
			src, err := restored.Table(name)
			if err != nil {
				return err
			}
			dst, err := c.db.Table(name)
			if err != nil {
				continue // table this device does not keep
			}
			key := dst.Schema().Key
			for _, r := range dst.Select(nil) {
				keyVals := make([]any, len(key))
				for i, k := range key {
					keyVals[i] = r[k]
				}
				if err := u.Delete(name, keyVals...); err != nil {
					return err
				}
			}
			for _, r := range src.Select(nil) {
				if err := u.Insert(name, r); err != nil {
					return fmt.Errorf("calendar: restore %s: %w", name, err)
				}
			}
		}
		return nil
	})
}

// NewProxyAdopter returns a proxy.Adopter that reconstructs a user's
// *full* calendar node from a snapshot: the calendar service AND the
// links service, so negotiations keep working against the proxied user
// ("the proxy and the SyD object act as a single entity", §5.2).
func NewProxyAdopter(net transport.Network, dirAddr string, notifier notify.Notifier) proxy.Adopter {
	if notifier == nil {
		notifier = notify.Discard{}
	}
	return func(user string, snapshot []byte) (map[string]*listener.Object, func() ([]byte, error), error) {
		db := store.NewDB()
		if len(snapshot) > 0 {
			if err := db.Restore(bytes.NewReader(snapshot)); err != nil {
				return nil, nil, fmt.Errorf("calendar adopter: %w", err)
			}
		}
		dir := directory.NewClient(net, dirAddr)
		eng := engine.New(net, dir, user)
		lm, err := links.NewManager(user, db, eng, clock.System)
		if err != nil {
			return nil, nil, err
		}
		cal, err := NewDetached(user, db, lm, eng, WithNotifier(notifier))
		if err != nil {
			return nil, nil, err
		}
		services := map[string]*listener.Object{
			ServiceFor(user):       cal.ServiceObject(),
			links.ServiceFor(user): lm.Object(),
		}
		checkpoint := func() ([]byte, error) { return cal.Checkpoint() }
		return services, checkpoint, nil
	}
}

// GoOffline pushes this calendar's state to the user's assigned proxy
// and marks the user offline — the deliberate-disconnect half of the
// §5.2 mobility story. The caller should then drop the device off the
// network (close the node or power down).
func (c *Calendar) GoOffline(ctx context.Context, net transport.Network, dir *directory.Client) error {
	snap, err := c.Checkpoint()
	if err != nil {
		return err
	}
	if err := proxy.PushToProxy(ctx, net, dir, c.user, snap); err != nil {
		return err
	}
	return dir.SetOffline(ctx, c.user, true)
}

// ComeBack pulls the proxied state into this calendar and marks the
// user online again — "once A comes back up, A takes over the proxy".
func (c *Calendar) ComeBack(ctx context.Context, net transport.Network, dir *directory.Client) error {
	snap, err := proxy.PullFromProxy(ctx, net, dir, c.user)
	if err != nil {
		return err
	}
	if err := c.Restore(ctx, snap); err != nil {
		return err
	}
	return dir.SetOffline(ctx, c.user, false)
}
