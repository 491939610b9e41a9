package rewire

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rewire/internal/osn"
)

// Backend is the minimal driver contract of the SDK: one context-first,
// batch-capable fetch. Everything else the sampling stack provides — the
// sharded response cache, per-user singleflight, the paper's unique-query
// demand billing, budgets, and the speculative prefetch pool — is layered on
// top by the Provider returned from Open or BackendSource, identically for
// every backend: a simulated service, a live HTTP endpoint, a read-only CSR
// snapshot, or anything a third party registers via Register.
//
// Contract:
//
//   - Fetch returns exactly one neighbor list per requested id, in input
//     order, or a non-nil error for the batch as a whole (no partial
//     results). An empty list is a valid answer for an isolated user.
//   - An id outside the backend's user space fails with an error matching
//     ErrNoSuchUser (errors.Is).
//   - Fetch honors ctx: cancellation or deadline expiry aborts the in-flight
//     round-trip and returns the context's error.
//   - Returned slices pass ownership to the caller: the backend must not
//     retain or mutate them (they are cached forever client-side).
//   - Fetch must be safe for concurrent use.
//
// Optional capabilities — UserCounter, Hinter, RateLimited, io.Closer — are
// discovered by interface probing that follows Unwrap chains, so middleware
// wrappers (WithRetry, WithRateLimit, WithMetrics) never hide them.
type Backend interface {
	Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error)
}

// UserCounter is the optional Backend capability of publishing the total
// user count — the figure the paper notes real providers publish for
// advertising purposes, and the one Random Jump needs for its ID space.
// Sessions over a backend without it cannot spread starts and must pin them
// with WithStarts.
type UserCounter interface {
	NumUsers() int
}

// Hinter is the optional Backend capability of accepting advisory prefetch
// hints: ids the sampler expects to demand soon. The provider's speculative
// pool forwards every hint it accepts, so a backend can warm its own side of
// the fetch (fault pages in, pipeline a request). Hint must not block, must
// be safe for concurrent use, and carries no obligation.
type Hinter interface {
	Hint(ids []NodeID)
}

// RateLimitInfo is provider-published quota feedback, typically mirrored
// from X-RateLimit-* response headers.
type RateLimitInfo struct {
	// Limit and Remaining are the window quota and what is left of it.
	Limit, Remaining int
	// Reset is when the window replenishes (zero when unknown).
	Reset time.Time
}

// RateLimited is the optional Backend capability of reporting the provider's
// live quota state. ok is false until feedback has been observed.
type RateLimited interface {
	RateLimit() (RateLimitInfo, bool)
}

// BackendUnwrapper is implemented by middleware that wraps another Backend.
// Capability probing (and Provider.Close) follows the chain, sql-driver
// style, so composition never hides an inner backend's abilities.
type BackendUnwrapper interface {
	Unwrap() Backend
}

// backendAs resolves capability T anywhere on b's Unwrap chain, outermost
// first.
func backendAs[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(BackendUnwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}

// osnBackend adapts a public Backend to the internal client contract,
// resolving capabilities through the Unwrap chain once at construction.
// The Hinter capability is surfaced by a distinct wrapper type
// (hintingOSNBackend) rather than an always-present no-op method, so the
// client's probe-once `be.(Hinter)` stays false — and the prefetch path
// allocation-free — for backends without one.
type osnBackend struct {
	b     Backend
	users func() int
}

func newOSNBackend(b Backend) osn.Backend {
	a := &osnBackend{b: b}
	if uc, ok := backendAs[UserCounter](b); ok {
		a.users = uc.NumUsers
	}
	if h, ok := backendAs[Hinter](b); ok {
		return &hintingOSNBackend{osnBackend: a, hint: h.Hint}
	}
	return a
}

func (a *osnBackend) Fetch(ctx context.Context, ids []NodeID) ([]osn.Response, error) {
	lists, err := a.b.Fetch(ctx, ids)
	if err != nil {
		return nil, err
	}
	if len(lists) != len(ids) {
		return nil, fmt.Errorf("rewire: backend returned %d lists for %d ids", len(lists), len(ids))
	}
	out := make([]osn.Response, len(ids))
	for i, v := range ids {
		out[i] = osn.Response{User: v, Neighbors: lists[i]}
	}
	return out, nil
}

func (a *osnBackend) NumUsers() int {
	if a.users == nil {
		return 0
	}
	return a.users()
}

// hintingOSNBackend is the adapter variant for backends with a Hinter on
// their chain.
type hintingOSNBackend struct {
	*osnBackend
	hint func(ids []NodeID)
}

func (a *hintingOSNBackend) Hint(ids []NodeID) { a.hint(ids) }

// closeBackend closes every io.Closer on b's Unwrap chain, returning the
// first error.
func closeBackend(b Backend) error {
	var first error
	for b != nil {
		if c, ok := b.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		u, ok := b.(BackendUnwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	return first
}

// RetryOptions tunes WithRetry. Zero values select the defaults noted on
// each field.
type RetryOptions struct {
	// MaxAttempts bounds tries per Fetch, first attempt included (default 4).
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff: the delay before
	// retry n is min(MaxDelay, BaseDelay·2ⁿ⁻¹) with bounded jitter in
	// [delay/2, delay). Defaults 100ms and 5s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// WithRetry wraps b with bounded-jitter exponential-backoff retries. Context
// errors and ErrNoSuchUser are never retried; anything else is, unless it
// declares itself permanent via `interface{ Temporary() bool }` (as the HTTP
// driver's status errors do). An error asking for a wait through
// `interface{ RetryDelay() time.Duration }` (the HTTP driver's 429 and 5xx
// errors carry the provider's Retry-After this way) lengthens the backoff
// sleep to it; a wait longer than MaxDelay ends the retries at once with that
// error. Drivers with built-in retry (http) generally do not need this
// wrapper — it exists for third-party backends that fail transiently
// without one. Only whole-batch failures are retried: per-id errors from
// FetchPartial are final answers.
func WithRetry(b Backend, o RetryOptions) Backend {
	return &retryBackend{inner: b, partial: partialFetchFunc(b), policy: osn.Backoff(o)}
}

type retryBackend struct {
	inner   Backend
	partial func(context.Context, []NodeID) ([][]NodeID, []error, error)
	policy  osn.Backoff
}

func (r *retryBackend) Unwrap() Backend { return r.inner }

func (r *retryBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	var lists [][]NodeID
	err := r.policy.Retry(ctx, func() (err error) {
		lists, err = r.inner.Fetch(ctx, ids)
		return err
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}

func (r *retryBackend) FetchPartial(ctx context.Context, ids []NodeID) ([][]NodeID, []error, error) {
	var lists [][]NodeID
	var errs []error
	err := r.policy.Retry(ctx, func() (err error) {
		lists, errs, err = r.partial(ctx, ids)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return lists, errs, nil
}

// WithRateLimit wraps b with a client-side token bucket: at most rps
// fetches per second with the given burst capacity (burst < 1 is raised to
// 1). Use it to stay politely inside a provider's published quota instead of
// bouncing off 429s. A Fetch blocked on the bucket honors ctx.
func WithRateLimit(b Backend, rps float64, burst int) Backend {
	if burst < 1 {
		burst = 1
	}
	if rps <= 0 {
		return b
	}
	return &rateLimitBackend{
		inner:   b,
		partial: partialFetchFunc(b),
		rps:     rps,
		burst:   float64(burst),
		tokens:  float64(burst),
		last:    time.Now(),
	}
}

type rateLimitBackend struct {
	inner   Backend
	partial func(context.Context, []NodeID) ([][]NodeID, []error, error)
	rps     float64
	burst   float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (r *rateLimitBackend) Unwrap() Backend { return r.inner }

// take reserves one token, returning how long the caller must wait for it.
func (r *rateLimitBackend) take(now time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tokens += now.Sub(r.last).Seconds() * r.rps
	if r.tokens > r.burst {
		r.tokens = r.burst
	}
	r.last = now
	r.tokens--
	if r.tokens >= 0 {
		return 0
	}
	return time.Duration(-r.tokens / r.rps * float64(time.Second))
}

func (r *rateLimitBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if err := r.block(ctx); err != nil {
		return nil, err
	}
	return r.inner.Fetch(ctx, ids)
}

// FetchPartial charges the bucket exactly like Fetch — one token per
// round-trip, however many ids it coalesces — so a dispatcher probing through
// this wrapper cannot sidestep the limiter.
func (r *rateLimitBackend) FetchPartial(ctx context.Context, ids []NodeID) ([][]NodeID, []error, error) {
	if err := r.block(ctx); err != nil {
		return nil, nil, err
	}
	return r.partial(ctx, ids)
}

// block waits out the token reservation, honoring ctx.
func (r *rateLimitBackend) block(ctx context.Context) error {
	if wait := r.take(time.Now()); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			// Refund the reservation: no request reached the backend, so a
			// cancelled wait must not eat quota (repeated cancellations would
			// otherwise throttle below the configured rate forever).
			r.mu.Lock()
			r.tokens++
			r.mu.Unlock()
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// BackendMetrics accumulates fetch telemetry for a WithMetrics wrapper. All
// counters are atomic; one value may be shared by several wrapped backends.
type BackendMetrics struct {
	fetches  atomic.Int64
	ids      atomic.Int64
	failures atomic.Int64
	nanos    atomic.Int64
	// sizeBuckets is a power-of-two batch-size histogram: bucket 0 counts
	// single-id fetches, bucket i fetches of (2^(i-1), 2^i] ids, the last
	// bucket everything larger. It makes coalescing visible: a dispatcher
	// doing its job moves mass out of bucket 0.
	sizeBuckets [8]atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of a BackendMetrics.
type MetricsSnapshot struct {
	// Fetches and IDs count Fetch calls and the ids they carried; Failures
	// counts calls that returned an error.
	Fetches, IDs, Failures int64
	// Total is the summed wall-clock of all Fetch calls.
	Total time.Duration
	// BatchSizeBuckets is a power-of-two histogram of ids per Fetch:
	// bucket 0 counts single-id calls, bucket i calls of (2^(i-1), 2^i] ids
	// (2, ≤4, ≤8, ≤16, ≤32, ≤64), the last bucket everything above 64.
	BatchSizeBuckets [8]int64
}

// Snapshot returns the current counters.
func (m *BackendMetrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Fetches:  m.fetches.Load(),
		IDs:      m.ids.Load(),
		Failures: m.failures.Load(),
		Total:    time.Duration(m.nanos.Load()),
	}
	for i := range m.sizeBuckets {
		s.BatchSizeBuckets[i] = m.sizeBuckets[i].Load()
	}
	return s
}

// WithMetrics wraps b so every Fetch updates m. Nil m allocates a fresh one;
// read it back via the returned backend's Metrics method (probe with
// backend.(interface{ Metrics() *BackendMetrics })) or keep your own handle.
func WithMetrics(b Backend, m *BackendMetrics) Backend {
	if m == nil {
		m = &BackendMetrics{}
	}
	return &metricsBackend{inner: b, partial: partialFetchFunc(b), m: m}
}

type metricsBackend struct {
	inner   Backend
	partial func(context.Context, []NodeID) ([][]NodeID, []error, error)
	m       *BackendMetrics
}

func (mb *metricsBackend) Unwrap() Backend          { return mb.inner }
func (mb *metricsBackend) Metrics() *BackendMetrics { return mb.m }

func (mb *metricsBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	start := time.Now()
	lists, err := mb.inner.Fetch(ctx, ids)
	mb.m.record(len(ids), start, err)
	return lists, err
}

// FetchPartial meters the per-id fetch path identically to Fetch, so batches
// a coalescing dispatcher sends through this wrapper land in the counters
// and the size histogram. Only a whole-batch error counts as a failure.
func (mb *metricsBackend) FetchPartial(ctx context.Context, ids []NodeID) ([][]NodeID, []error, error) {
	start := time.Now()
	lists, errs, err := mb.partial(ctx, ids)
	mb.m.record(len(ids), start, err)
	return lists, errs, err
}

// record meters one call of n ids that began at start and returned err.
func (m *BackendMetrics) record(n int, start time.Time, err error) {
	m.fetches.Add(1)
	m.ids.Add(int64(n))
	if n > 0 {
		m.sizeBuckets[batchSizeBucket(n)].Add(1)
	}
	m.nanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		m.failures.Add(1)
	}
}
