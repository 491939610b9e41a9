package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"rewire"
	"rewire/internal/core"
	"rewire/internal/durable"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// crawlSpec is one SDK crawl: the chain, fleet size, seed and sample count
// of a session. Budgets are always partitioned per walker, so each walker's
// trajectory — and with it the unique-query bill — is fixed by the seed.
type crawlSpec struct {
	alg     rewire.Algorithm
	walkers int
	seed    uint64
	samples int
	// settle forces a collection, untimed, between set-up and the sampling
	// request, so a collection that set-up's allocations left running does
	// not land in the first sample in some rounds and not in others.
	settle bool
}

func (s crawlSpec) options() []rewire.Option {
	return []rewire.Option{
		rewire.WithAlgorithm(s.alg),
		rewire.WithFleet(s.walkers),
		rewire.WithSeed(s.seed),
		rewire.WithPartitionedBudget(true),
	}
}

// memDelta is the runtime.MemStats difference across a sampling loop.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC}
}

// sdkCrawl is one crawl through the public SDK: Open, NewSession, Stream.
// It returns the open provider and session so the caller can read bills
// and heap before closing.
type sdkCrawl struct {
	p       *rewire.Provider
	sess    *rewire.Session
	setup   time.Duration
	mem     memDelta
	samples int
	err     error
}

func runSDK(ctx context.Context, url string, spec crawlSpec, c *consumer) *sdkCrawl {
	out := &sdkCrawl{}
	t0 := time.Now()
	p, err := rewire.Open(ctx, url)
	if err != nil {
		out.err = err
		return out
	}
	sess, err := rewire.NewSession(p, spec.options()...)
	if err != nil {
		p.Close()
		out.err = err
		return out
	}
	out.p, out.sess, out.setup = p, sess, time.Since(t0)
	if spec.settle {
		runtime.GC()
	}
	before := readMem()
	c.begin()
	for s, err := range sess.Stream(ctx, spec.samples) {
		if err != nil {
			out.err = err
			break
		}
		c.take(s)
	}
	out.mem = diffMem(before, readMem())
	out.samples = c.n
	return out
}

// tracedStack is the traced twin of an SDK crawl: the same provider stack
// and session, built from the constructors Open, BackendSource and
// NewSession use, with the benchmark's seams inserted at the layer
// boundaries — backend under the cache, walker source between the walker
// (or the MTO overlay) and the cache, walker around each fleet member, and
// the journal under the cache when a durable cache is attached.
type tracedStack struct {
	tr      *tracer
	inner   rewire.Backend
	client  *osn.Client
	cache   *durable.Cache
	bounds  []*walk.Bound
	members []walk.Walker
	overlay *core.Overlay
	fleet   *walk.Fleet
	// openSnap and replay time the snapshot open and, with a durable cache,
	// durable.Open plus Attach — the warm leg's WAL replay.
	openSnap, replay time.Duration
}

// newTracedStack opens snapPath (and, when dir is set, the durable cache in
// dir) and builds spec's session over it.
func newTracedStack(ctx context.Context, snapPath, dir string, spec crawlSpec) (*tracedStack, error) {
	tr := newTracer(spec.walkers)
	st := &tracedStack{tr: tr}
	t0 := time.Now()
	inner, err := rewire.OpenBackend(ctx, "snapshot:"+snapPath)
	if err != nil {
		return nil, err
	}
	st.openSnap = time.Since(t0)
	st.inner = inner
	t0 = time.Now()
	if dir != "" {
		if st.cache, err = durable.Open(dir, durable.Options{}); err != nil {
			st.close()
			return nil, err
		}
	}
	st.client = osn.NewClient(newOSNBackend((&backendSeam{inner: inner, tr: tr, kind: kFetch, link: dir != ""}).wrap()))
	if st.cache != nil {
		if err := st.cache.Attach(st.client); err != nil {
			st.close()
			return nil, err
		}
		st.client.SetJournal(&journalSeam{j: st.cache, tr: tr})
		st.replay = time.Since(t0)
	}

	// The session's construction order: one RNG, starts spread from it,
	// then one split stream per member.
	r := rng.New(spec.seed)
	starts := core.SpreadStarts(spec.walkers, st.client.NumUsers(), r)
	if len(starts) < spec.walkers {
		st.close()
		return nil, fmt.Errorf("fleet of %d exceeds %d users", spec.walkers, st.client.NumUsers())
	}
	switch spec.alg {
	case rewire.AlgMTO:
		// One overlay shared by the fleet; its source seam records into
		// lane 0, which is exact for the single walker the MTO workload runs.
		if spec.walkers != 1 {
			st.close()
			return nil, fmt.Errorf("the traced MTO stack runs one walker, not %d", spec.walkers)
		}
		b := walk.NewBound(st.client)
		st.bounds = []*walk.Bound{b}
		st.overlay = core.NewOverlayShards(&sourceSeam{b: b, tr: tr, l: tr.lanes[0]}, 0)
		m := core.NewSamplerOn(st.overlay, starts[0], core.DefaultConfig(), r.Split())
		st.members = []walk.Walker{&walkerSeam{w: m, tr: tr, l: tr.lanes[0]}}
	case rewire.AlgSRW:
		// One Bound per walker (the session shares one): a Bound only
		// carries the run's context and sticky error, and a per-walker
		// context is how the backend seam learns which walker's miss it
		// serves.
		for i, start := range starts {
			b := walk.NewBound(st.client)
			st.bounds = append(st.bounds, b)
			m := walk.NewSimple(&sourceSeam{b: b, tr: tr, l: tr.lanes[i]}, start, r.Split())
			st.members = append(st.members, &walkerSeam{w: m, tr: tr, l: tr.lanes[i]})
		}
	default:
		st.close()
		return nil, fmt.Errorf("no traced stack for %v", spec.alg)
	}
	st.fleet = walk.NewFleet(st.members...)
	return st, nil
}

// stream mirrors Session.Stream: bind the run context, query every start
// (batched first for a fleet, as the session does), then drain the
// partitioned fleet stream into c.
func (st *tracedStack) stream(ctx context.Context, samples int, c *consumer) error {
	for i, b := range st.bounds {
		b.Bind(withLane(ctx, st.tr.lanes[i]))
	}
	c.begin()
	if len(st.members) > 1 {
		ids := make([]rewire.NodeID, len(st.members))
		for i, m := range st.members {
			ids[i] = m.Current()
		}
		if _, err := st.client.QueryBatchContext(ctx, ids); err != nil {
			return err
		}
	}
	for i, m := range st.members {
		b := st.bounds[min(i, len(st.bounds)-1)]
		nbrs, err := b.NeighborsContext(ctx, m.Current())
		if err != nil {
			return err
		}
		if len(nbrs) == 0 {
			return fmt.Errorf("start %d is disconnected", m.Current())
		}
	}
	ch, stop := st.fleet.StreamPartitionedContext(ctx, samples)
	for s := range ch {
		c.take(s)
	}
	stop()
	for _, b := range st.bounds {
		if err := b.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (st *tracedStack) close() error {
	var first error
	if st.cache != nil {
		first = st.cache.Close()
	}
	if st.inner != nil {
		if c, ok := rewire.BackendAs[io.Closer](st.inner); ok {
			if err := c.Close(); first == nil {
				first = err
			}
		}
	}
	return first
}

// stepLayers derives the walk, core and osn per-layer metrics of a traced
// crawl.
func stepLayers(a *analysis, m map[string]metric) {
	steps := a.kinds[kStep].count
	if steps == 0 {
		return
	}
	p50, _ := percentile(a.kinds[kStep].durs, 0.50)
	p99, _ := percentile(a.kinds[kStep].durs, 0.99)
	setLayer(m, "walk.step_ns_p50", p50)
	setLayer(m, "walk.step_ns_p99", p99)
	coreSelf := a.coreSelf()
	setLayer(m, "core.self_ns_per_step", float64(coreSelf)/float64(steps))
	calls := a.kinds[kCall].count
	setLayer(m, "osn.calls_per_step", float64(calls)/float64(steps))
	if calls > 0 {
		setLayer(m, "osn.hit_ratio", float64(len(a.hits))/float64(calls))
	}
	hit50, _ := percentile(a.hits, 0.50)
	miss50, _ := percentile(a.misses, 0.50)
	miss99, _ := percentile(a.misses, 0.99)
	setLayer(m, "osn.hit_ns_p50", hit50)
	setLayer(m, "osn.miss_ns_p50", miss50)
	setLayer(m, "osn.miss_ns_p99", miss99)
	if len(a.misses) > 0 {
		setLayer(m, "osn.self_ns_per_miss", float64(a.missSelf)/float64(len(a.misses)))
	}
}

// coreSelf is the walkers' own time: step and weight spans minus the cache
// calls they made — the spanned ones through their children, the sampled
// cached reads (all made from within steps) by their estimated total.
func (a *analysis) coreSelf() int64 {
	return a.kinds[kStep].self + a.kinds[kWeight].self - a.kinds[kPeek].total
}

// wallLine says where a traced SDK crawl's wall clock went, as shares of
// the walker lanes' combined time (walkers × wall).
func wallLine(a *analysis, walkers int, wall time.Duration) string {
	laneTime := float64(walkers) * float64(wall)
	share := func(ns int64) float64 { return 100 * float64(ns) / laneTime }
	inSteps := a.kinds[kStep].total + a.kinds[kWeight].total
	return fmt.Sprintf("wall clock %.3f s over %d walker lane(s): core %.1f%%, osn cache %.1f%%, backend %.1f%%, journal %.1f%%, outside steps (delivery, scheduling) %.1f%%",
		wall.Seconds(), walkers,
		share(a.coreSelf()),
		share(a.kinds[kCall].self+a.kinds[kPeek].self),
		share(a.kinds[kFetch].total),
		share(a.kinds[kJournal].total),
		share(int64(laneTime)-inSteps))
}

// allocLayers records the runtime metrics of an untraced sampling loop.
func allocLayers(d memDelta, samples int, m map[string]metric) {
	if samples == 0 {
		return
	}
	setLayer(m, "alloc.per_sample", float64(d.mallocs)/float64(samples))
	setLayer(m, "alloc.bytes_per_sample", float64(d.bytes)/float64(samples))
	setLayer(m, "gc.cycles", float64(d.gcs))
}
