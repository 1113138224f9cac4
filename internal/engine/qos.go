package engine

import (
	"context"
	"errors"
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

// RetryInterceptor turns transient unavailability into bounded,
// backed-off retries — the interceptor form of the engine's QoS
// support. Only transient failures (unreachable device, lost message,
// an attempt timeout) are retried; application errors (conflicts,
// auth, bad args) surface immediately. Routing state is reset between
// attempts, so each retry re-resolves through the chain's cache and
// resolver stages (a device that re-registered at a new address, or a
// stand-in that took its user over, is found). Backoff waits run on clk.
func RetryInterceptor(qos QoS, clk clock.Clock) Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			attempts := qos.Retries + 1
			backoff := qos.Backoff
			orig := *call
			var lastErr error
			for attempt := 0; attempt < attempts; attempt++ {
				if attempt > 0 {
					*call = orig // drop per-attempt routing state
					if backoff > 0 {
						select {
						case <-clk.After(backoff):
						case <-ctx.Done():
							return ctx.Err()
						}
						backoff *= 2
					}
				}
				attemptCtx := ctx
				var cancel context.CancelFunc
				if qos.AttemptTimeout > 0 {
					attemptCtx, cancel = context.WithTimeout(ctx, qos.AttemptTimeout)
				}
				err := next(attemptCtx, call, out)
				if cancel != nil {
					cancel()
				}
				if err == nil {
					return nil
				}
				lastErr = err
				if !retryable(err) {
					return err
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
			return lastErr
		}
	}
}

// retryable reports whether an error is transient.
func retryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true // the attempt timed out; the next may succeed
	}
	return isUnavailable(err)
}
