package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span kinds: one per layer seam the traced run times.
const (
	kStep    uint8 = iota // walk.step: one Walker.Step call
	kWeight               // walk.weight: one StationaryWeight call
	kCall                 // osn.call: a walker-side neighbor read through the cache
	kPeek                 // osn.peek: a free cached-topology read (Theorem 5 probes)
	kFetch                // backend.fetch: one Backend.Fetch below the cache or the batcher
	kDemand               // batch.demand: one Backend.Fetch above WithBatching
	kJournal              // durable.append: one journal record
	kHandler              // httpsrc.handler: one provider-side HTTP request
	numKinds
)

var kindNames = [numKinds]string{"walk.step", "walk.weight", "osn.call", "osn.peek", "backend.fetch", "batch.demand", "durable.append", "httpsrc.handler"}

// span is one timed call at a seam. Times are nanoseconds since the
// tracer's origin; parent indexes the span (in the same lane) that was open
// when this one began, or -1.
type span struct {
	start, end int64
	parent     int32
	kind       uint8
	n          int32 // ids carried (fetch and demand spans)
}

// lane holds the spans of one goroutine-confined call chain — a walker and
// everything its steps call synchronously — so parents come from a plain
// stack with no locking. Seams that cannot tell which chain called them
// (the daemon's goroutines, provider-side handlers) record into the
// tracer's shared lane under a mutex, with no parent.
type lane struct {
	id     int
	shared bool
	mu     sync.Mutex // shared lanes only
	spans  []span
	stack  []int32
	// leaves aggregates the calls recorded without a span of their own:
	// [kind] = {calls, timed calls, Σ duration of the timed ones}.
	leaves [numKinds][3]int64
}

// tracer keeps every span in memory until the run ends; nothing is written
// while the workload runs.
type tracer struct {
	t0     time.Time
	lanes  []*lane
	shared *lane
	// clock is the cost of one clock read, taken off each sampled leaf
	// duration: a leaf is often shorter than the read that times it.
	clock int64

	// owner maps a fetched id to the lane whose miss fetched it, so the
	// journal record committed right after the fetch — the Journal
	// interface carries no context — finds its parent span.
	ownerMu sync.Mutex
	owner   map[int32]int
}

func newTracer(lanes int) *tracer {
	t := &tracer{t0: time.Now(), shared: &lane{id: -1, shared: true}, owner: make(map[int32]int)}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{id: i})
	}
	reads := make([]float64, 1001)
	for i := range reads {
		a := t.now()
		reads[i] = float64(t.now() - a)
	}
	t.clock = int64(median(reads))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span of kind k on l and returns its index.
func (t *tracer) begin(l *lane, k uint8, n int) int32 {
	if l.shared {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.spans = append(l.spans, span{start: t.now(), end: -1, parent: -1, kind: k, n: int32(n)})
		return int32(len(l.spans) - 1)
	}
	parent := int32(-1)
	if d := len(l.stack); d > 0 {
		parent = l.stack[d-1]
	}
	l.spans = append(l.spans, span{start: t.now(), end: -1, parent: parent, kind: k, n: int32(n)})
	i := int32(len(l.spans) - 1)
	l.stack = append(l.stack, i)
	return i
}

// end closes span i on l.
func (t *tracer) end(l *lane, i int32) {
	now := t.now()
	if l.shared {
		l.mu.Lock()
		l.spans[i].end = now
		l.mu.Unlock()
		return
	}
	l.spans[i].end = now
	l.stack = l.stack[:len(l.stack)-1]
}

// leafEvery is the sampling period of leaf calls: one in leafEvery is
// timed. The free cached reads of the Theorem 5 criterion run about sixty
// times an MTO step and cost tens of nanoseconds each, so timing every one
// would make the clock reads, not the walk, the thing measured.
const leafEvery = 16

// leafTimed counts one leaf call of kind k on l (a lane owned by the
// calling goroutine) and reports whether to time it.
func (l *lane) leafTimed(k uint8) bool {
	l.leaves[k][0]++
	return l.leaves[k][0]%leafEvery == 0
}

// leaf records the duration of a sampled leaf call that started at start,
// less one clock read.
func (t *tracer) leaf(l *lane, k uint8, start int64) {
	l.leaves[k][1]++
	l.leaves[k][2] += max(0, t.now()-start-t.clock)
}

type laneKey struct{}

// withLane tags ctx with lane l, so seams reached through a context (the
// backend seam under the cache) record into the lane of the walker whose
// read caused them.
func withLane(ctx context.Context, l *lane) context.Context {
	return context.WithValue(ctx, laneKey{}, l)
}

// laneOf returns the lane ctx carries, or the shared lane.
func (t *tracer) laneOf(ctx context.Context) *lane {
	if l, ok := ctx.Value(laneKey{}).(*lane); ok {
		return l
	}
	return t.shared
}

// cover accumulates the union of intervals fed in start order: covered is
// the total length, with overlaps counted once.
type cover struct{ covered, lastEnd int64 }

func (c *cover) add(s, e int64) {
	s = max(s, c.lastEnd)
	if e > s {
		c.covered += e - s
		c.lastEnd = e
	}
}

// selfTime is a span's duration minus the part of [start, end) that its
// children cover; overlapping children are counted once.
func selfTime(start, end int64, kids [][2]int64) int64 {
	iv := slices.Clone(kids)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	c := cover{lastEnd: start}
	for _, k := range iv {
		c.add(k[0], min(k[1], end))
	}
	return end - start - c.covered
}

// kindStats aggregates the spans (and leaf calls) of one kind.
type kindStats struct {
	count int
	total int64     // Σ duration
	self  int64     // Σ self time
	durs  []float64 // per-span durations, ns (spans only, not leaf calls)
	ids   int64     // Σ n
}

// analysis is the per-kind roll-up of a trace, plus the cache hit/miss split
// of osn.call spans: a call is a miss when it has a backend.fetch child,
// i.e. its own lane went to the backend on its behalf.
type analysis struct {
	kinds    [numKinds]kindStats
	hits     []float64
	misses   []float64
	missSelf int64
}

// analyze rolls the trace up. Within a lane, spans are appended in start
// order, so each parent's children arrive in start order and their union
// accumulates in one pass (the streaming form of selfTime).
func (t *tracer) analyze() analysis {
	var a analysis
	for _, l := range append(slices.Clone(t.lanes), t.shared) {
		covers := make([]cover, len(l.spans))
		hasFetch := make([]bool, len(l.spans))
		for i, s := range l.spans {
			covers[i].lastEnd = s.start
			if s.end >= 0 && s.parent >= 0 {
				p := l.spans[s.parent]
				covers[s.parent].add(s.start, min(s.end, p.end))
				if s.kind == kFetch {
					hasFetch[s.parent] = true
				}
			}
		}
		for k, lv := range l.leaves {
			if lv[1] == 0 {
				continue
			}
			est := lv[0] * lv[2] / lv[1] // calls × mean sampled duration
			a.kinds[k].count += int(lv[0])
			a.kinds[k].total += est
			a.kinds[k].self += est
		}
		for i, s := range l.spans {
			if s.end < 0 {
				continue
			}
			ks := &a.kinds[s.kind]
			d := s.end - s.start
			self := d - covers[i].covered
			ks.count++
			ks.total += d
			ks.self += self
			ks.durs = append(ks.durs, float64(d))
			ks.ids += int64(s.n)
			if s.kind == kCall {
				if hasFetch[i] {
					a.misses = append(a.misses, float64(d))
					a.missSelf += self
				} else {
					a.hits = append(a.hits, float64(d))
				}
			}
		}
	}
	return a
}

// merge folds b into a, so figures can pool several traced rounds.
func (a *analysis) merge(b analysis) {
	for k := range a.kinds {
		x, y := &a.kinds[k], b.kinds[k]
		x.count += y.count
		x.total += y.total
		x.self += y.self
		x.durs = append(x.durs, y.durs...)
		x.ids += y.ids
	}
	a.hits = append(a.hits, b.hits...)
	a.misses = append(a.misses, b.misses...)
	a.missSelf += b.missSelf
}

// countLine lists how many calls of each kind a trace holds.
func (a *analysis) countLine() string {
	var b strings.Builder
	b.WriteString("traced calls:")
	for k, ks := range a.kinds {
		if ks.count > 0 {
			fmt.Fprintf(&b, " %s %d", kindNames[k], ks.count)
		}
	}
	return b.String()
}
