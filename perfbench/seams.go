package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/walk"
)

// The seams below are the benchmark's timing wrappers. Each one sits at a
// layer boundary, forwards every call unchanged, and keeps the exact
// capability set of what it wraps: the SDK and the overlay choose code
// paths by probing interfaces, and a wrapper that hid one would change the
// program being measured. The traced run proves they did not by comparing
// its trajectory hash and query bill with the untraced run's.

// backendSeam times Backend.Fetch. It forwards Unwrap, so every capability
// probe (UserCounter, Hinter, Closer, BatchStatser) still resolves through
// it; partialSeam adds FetchPartial for wrapped chains that have it.
type backendSeam struct {
	inner rewire.Backend
	tr    *tracer
	kind  uint8
	// link records which lane fetched each id, for the journal seam.
	link bool
	// book, when set, pairs demands above the batcher with their dispatch
	// below it.
	book *waitBook
}

func (b *backendSeam) Unwrap() rewire.Backend { return b.inner }

func (b *backendSeam) open(ctx context.Context, ids []rewire.NodeID) (*lane, int32) {
	l := b.tr.laneOf(ctx)
	if b.link && !l.shared {
		b.tr.ownerMu.Lock()
		for _, v := range ids {
			b.tr.owner[int32(v)] = l.id
		}
		b.tr.ownerMu.Unlock()
	}
	i := b.tr.begin(l, b.kind, len(ids))
	if b.book != nil {
		b.book.record(b.kind, ids, b.tr.now())
	}
	return l, i
}

func (b *backendSeam) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	l, i := b.open(ctx, ids)
	defer b.tr.end(l, i)
	return b.inner.Fetch(ctx, ids)
}

type partialSeam struct {
	*backendSeam
	pf rewire.PartialFetcher
}

func (b partialSeam) FetchPartial(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, []error, error) {
	l, i := b.open(ctx, ids)
	defer b.tr.end(l, i)
	return b.pf.FetchPartial(ctx, ids)
}

// wrap returns the seam as a Backend with the same PartialFetcher
// capability as the chain it wraps.
func (b *backendSeam) wrap() rewire.Backend {
	if pf, ok := rewire.BackendAs[rewire.PartialFetcher](b.inner); ok {
		return partialSeam{b, pf}
	}
	return b
}

// osnBackend adapts a public Backend to the cache client's contract the way
// the SDK's BackendSource does: one Response per id, the user count
// resolved once through the Unwrap chain. (The SDK also forwards prefetch
// hints; the snapshot backends the traced stacks open take none.)
type osnBackend struct {
	b     rewire.Backend
	users int
}

func (a *osnBackend) Fetch(ctx context.Context, ids []graph.NodeID) ([]osn.Response, error) {
	lists, err := a.b.Fetch(ctx, ids)
	if err != nil {
		return nil, err
	}
	if len(lists) != len(ids) {
		return nil, fmt.Errorf("backend returned %d lists for %d ids", len(lists), len(ids))
	}
	out := make([]osn.Response, len(ids))
	for i, v := range ids {
		out[i] = osn.Response{User: v, Neighbors: lists[i]}
	}
	return out, nil
}

func (a *osnBackend) NumUsers() int { return a.users }

func newOSNBackend(b rewire.Backend) *osnBackend {
	a := &osnBackend{b: b}
	if uc, ok := rewire.BackendAs[rewire.UserCounter](b); ok {
		a.users = uc.NumUsers()
	}
	return a
}

// sourceSeam sits between a walker (or the MTO overlay) and the cache
// client, over the walk.Bound a Session builds. It has Bound's full method
// set — query path, prefetch hints, free cached reads, sticky failure — so
// every probe the overlay and the samplers make sees the same answers.
type sourceSeam struct {
	b  *walk.Bound
	tr *tracer
	l  *lane
}

func (s *sourceSeam) Neighbors(v graph.NodeID) []graph.NodeID {
	i := s.tr.begin(s.l, kCall, 1)
	defer s.tr.end(s.l, i)
	return s.b.Neighbors(v)
}

func (s *sourceSeam) Degree(v graph.NodeID) int {
	i := s.tr.begin(s.l, kCall, 1)
	defer s.tr.end(s.l, i)
	return s.b.Degree(v)
}

func (s *sourceSeam) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	i := s.tr.begin(s.l, kCall, 1)
	defer s.tr.end(s.l, i)
	return s.b.NeighborsContext(ctx, v)
}

// The cached reads are leaf calls, sampled rather than spanned (see
// leafEvery); they are made by the MTO sampler from within its step.
func (s *sourceSeam) Cached(v graph.NodeID) bool {
	if !s.l.leafTimed(kPeek) {
		return s.b.Cached(v)
	}
	t := s.tr.now()
	ok := s.b.Cached(v)
	s.tr.leaf(s.l, kPeek, t)
	return ok
}

func (s *sourceSeam) CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	if !s.l.leafTimed(kPeek) {
		return s.b.CachedNeighbors(v)
	}
	t := s.tr.now()
	nbrs, ok := s.b.CachedNeighbors(v)
	s.tr.leaf(s.l, kPeek, t)
	return nbrs, ok
}

func (s *sourceSeam) CachedDegree(v graph.NodeID) (int, bool) {
	if !s.l.leafTimed(kPeek) {
		return s.b.CachedDegree(v)
	}
	t := s.tr.now()
	d, ok := s.b.CachedDegree(v)
	s.tr.leaf(s.l, kPeek, t)
	return d, ok
}

func (s *sourceSeam) Prefetch(ids ...graph.NodeID) int { return s.b.Prefetch(ids...) }
func (s *sourceSeam) Known(v graph.NodeID) bool        { return s.b.Known(v) }
func (s *sourceSeam) Err() error                       { return s.b.Err() }

// stepper is what a fleet member must offer for the walker seam to keep its
// capability set: every walker the workloads run (SRW and the MTO sampler)
// reports stationary weights and a sticky failure.
type stepper interface {
	walk.Walker
	walk.Weighter
	walk.Failing
}

// walkerSeam times each fleet member's Step and StationaryWeight.
type walkerSeam struct {
	w  stepper
	tr *tracer
	l  *lane
}

func (w *walkerSeam) Current() graph.NodeID { return w.w.Current() }
func (w *walkerSeam) Err() error            { return w.w.Err() }

func (w *walkerSeam) Step() graph.NodeID {
	i := w.tr.begin(w.l, kStep, 0)
	defer w.tr.end(w.l, i)
	return w.w.Step()
}

func (w *walkerSeam) StationaryWeight(v graph.NodeID) float64 {
	i := w.tr.begin(w.l, kWeight, 0)
	defer w.tr.end(w.l, i)
	return w.w.StationaryWeight(v)
}

// journalSeam wraps the osn.Journal a durable cache installs with Attach
// and times its fetch records, each parented to the miss that committed it
// (the lane the backend seam saw fetch that id). The other records —
// prefetch upgrades and budgets — do not occur in the workloads.
type journalSeam struct {
	j  osn.Journal
	tr *tracer
}

func (s *journalSeam) RecordFetch(v graph.NodeID, resp osn.Response, billed bool, tenant string) error {
	l := s.tr.shared
	s.tr.ownerMu.Lock()
	if id, ok := s.tr.owner[int32(v)]; ok {
		l = s.tr.lanes[id]
		delete(s.tr.owner, int32(v))
	}
	s.tr.ownerMu.Unlock()
	i := s.tr.begin(l, kJournal, 1)
	defer s.tr.end(l, i)
	return s.j.RecordFetch(v, resp, billed, tenant)
}

func (s *journalSeam) RecordUpgrade(v graph.NodeID, tenant string) error {
	return s.j.RecordUpgrade(v, tenant)
}

func (s *journalSeam) RecordBudget(n int64) error { return s.j.RecordBudget(n) }

func (s *journalSeam) RecordTenantBudget(tenant string, n int64) error {
	return s.j.RecordTenantBudget(tenant, n)
}

// handlerSeam wraps the provider's http.Handler: one span per request, plus
// the neighbor requests' byte counts, handler time and 304 revalidations.
type handlerSeam struct {
	h       http.Handler
	tr      *tracer
	latency time.Duration // the provider's injected per-request latency

	reqBytes, respBytes, revalidated, handlerNS atomic.Int64
	mu                                          sync.Mutex
	busy                                        []float64 // handler time minus injected latency, ns
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n      *atomic.Int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/meta" {
		h.h.ServeHTTP(w, r) // the metadata probe carries no ids and no injected latency
		return
	}
	l := h.tr.shared
	start := time.Now()
	i := h.tr.begin(l, kHandler, 0)
	// A request's ids travel in the body (batch POST) or the query (GET).
	h.reqBytes.Add(int64(len(r.URL.RawQuery)))
	r.Body = countingBody{r.Body, &h.reqBytes}
	cw := &countingWriter{ResponseWriter: w, n: &h.respBytes, status: http.StatusOK}
	h.h.ServeHTTP(cw, r)
	h.tr.end(l, i)
	d := time.Since(start)
	h.handlerNS.Add(int64(d))
	if cw.status == http.StatusNotModified {
		h.revalidated.Add(1)
	}
	h.mu.Lock()
	h.busy = append(h.busy, float64(d-h.latency))
	h.mu.Unlock()
}
