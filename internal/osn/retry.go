package osn

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Backoff is the backend layer's one retry policy: bounded attempts with
// bounded-jitter exponential backoff between them. Zero fields select the
// defaults noted on each.
type Backoff struct {
	// MaxAttempts bounds tries, first attempt included (default 4).
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff: the delay before
	// retry n is min(MaxDelay, BaseDelay·2ⁿ⁻¹) with bounded jitter in
	// [delay/2, delay). Defaults 100ms and 5s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Retry calls op until it returns nil. A failure ends the loop, returned as
// is, when ctx has ended (ctx.Err() is returned instead), when it matches
// ErrNoSuchUser, or when it declares itself permanent through
// `interface{ Temporary() bool }`. Anything else is retried after the
// backoff delay. An error that asks for a wait of its own through
// `interface{ RetryDelay() time.Duration }` (an HTTP Retry-After) lengthens
// that sleep; a wait beyond MaxDelay is not slept out but returned, for the
// caller to schedule around. The last failure after MaxAttempts comes back
// wrapped.
func (b Backoff) Retry(ctx context.Context, op func() error) error {
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 4
	}
	if b.BaseDelay <= 0 {
		b.BaseDelay = 100 * time.Millisecond
	}
	if b.MaxDelay <= 0 {
		b.MaxDelay = 5 * time.Second
	}
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context ended (not a per-attempt timeout inside
			// op): report it, not the transport noise it caused.
			return ctx.Err()
		}
		var tmp interface{ Temporary() bool }
		if errors.Is(err, ErrNoSuchUser) || errors.As(err, &tmp) && !tmp.Temporary() {
			return err
		}
		var asked interface{ RetryDelay() time.Duration }
		var wait time.Duration
		if errors.As(err, &asked) {
			if wait = asked.RetryDelay(); wait > b.MaxDelay {
				// Sleeping out a wait this client is not configured to block
				// for (an hour-long quota window) would wedge the walk.
				return err
			}
		}
		if attempt >= b.MaxAttempts {
			return fmt.Errorf("osn: %d attempts exhausted: %w", b.MaxAttempts, err)
		}
		d := b.BaseDelay << (attempt - 1)
		if d > b.MaxDelay || d <= 0 {
			d = b.MaxDelay
		}
		// Bounded jitter, uniform in [d/2, d): decorrelates a fleet of
		// crawlers without ever waiting less than half the intended delay.
		d = max(wait, d/2+time.Duration(rand.Int64N(int64(d/2)+1)))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
