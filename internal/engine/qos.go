package engine

import (
	"context"
	"time"

	"repro/internal/clock"
)

// QoS describes the delivery guarantees for an invocation. The paper
// assigns QoS responsibility to the groupware ("providing QoS support
// services for SyDApps", §2; elaborated in the authors' companion
// ICDCS'03 paper on QoS-aware SyD transactions): in a weakly connected
// mobile deployment an application states its tolerance and the engine
// turns transient unavailability into bounded retries.
type QoS struct {
	// AttemptTimeout bounds each individual attempt (0 = inherit the
	// caller's context only).
	AttemptTimeout time.Duration
	// Retries is the number of re-attempts after the first try
	// (0 = exactly one attempt).
	Retries int
	// Backoff is the wait before the first retry; it doubles each
	// further retry. 0 retries immediately.
	Backoff time.Duration
}

// Retry runs attempt under qos, turning transient failures into
// bounded, backed-off retries: the engine's QoS support. Only a
// transient failure (IsTransient: an unreachable device, a lost
// message, an attempt timeout) is retried; an application error
// (conflict, auth, bad args) is returned at once. Each attempt gets a
// context bounded by qos.AttemptTimeout, and an attempt that invokes
// resolves afresh through the route cache and the directory (a device
// that re-registered at a new address, or a stand-in that took its user
// over, is found). Backoff waits run on clk.
func Retry(ctx context.Context, qos QoS, clk clock.Clock, attempt func(context.Context) error) error {
	backoff := qos.Backoff
	var err error
	for i := 0; i <= qos.Retries; i++ {
		if i > 0 && backoff > 0 {
			select {
			case <-clk.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if qos.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, qos.AttemptTimeout)
		}
		err = attempt(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil || !IsTransient(err) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return err
}
