package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/gen"
)

const (
	// mtoSamples is one mto-crawl round: long enough that the MTO walk's
	// rewiring settles into its steady mix of removals and cache hits.
	mtoSamples = 100_000
	// mtoProbes cold opens after every round measure set-up and time to
	// first sample, each from its own walker seed (start node), so their
	// medians describe the stack rather than one start's neighbourhood.
	// Batches spread over the run average over the machine's load the way
	// the rounds do; each starts on a collected heap, so a round's garbage
	// and the collector's work do not split the times into two modes.
	mtoProbes = 10
	// avgDegreeTolerance bounds the relative error of the importance-
	// weighted average-degree estimate from one round's samples, weighted
	// by the overlay degree each sample reports. The paper's unbiasedness
	// holds for the stationary walk; a round samples from a cold start,
	// while the overlay is still being rewired, and on the Slashdot B preset
	// that transient leaves 100k-sample estimates 6-11% high (after a 2M-step
	// burn-in they are within 1%, as SRW's are). A wrong weight — a uniform
	// or an original-degree one — misses by far more than this bound.
	avgDegreeTolerance = 0.15
)

// snapshotInput generates the full-scale Slashdot B preset (the fixed
// dataset seed every driver in the repository uses), writes it as a CSR
// snapshot under dir, and returns the path, its true degree table, and the
// edge count. Generation is input preparation: it is not timed, and its
// garbage is collected before anything is.
func snapshotInput(dir string) (path string, deg []int32, edges int, err error) {
	g := gen.SlashdotBLike(dataset.Seed)
	deg = make([]int32, g.NumNodes())
	for v := range deg {
		deg[v] = int32(g.Degree(rewire.NodeID(v)))
	}
	path = filepath.Join(dir, "slashdot-b.csr")
	if err := rewire.WriteSnapshotFile(path, g); err != nil {
		return "", nil, 0, err
	}
	edges = g.NumEdges()
	g = nil
	runtime.GC()
	return path, deg, edges, nil
}

func avgDegree(deg []int32) float64 {
	sum := 0.0
	for _, d := range deg {
		sum += float64(d)
	}
	return sum / float64(len(deg))
}

// mtoProbe makes one batch of cold opens: open, first sample, close.
func mtoProbe(ctx context.Context, url string, spec crawlSpec, batch int, res *result) error {
	runtime.GC()
	for i := 0; i < mtoProbes; i++ {
		probe := spec
		probe.seed, probe.samples = (spec.seed*1000+uint64(batch))*mtoProbes+uint64(i)+1, 1
		c := newConsumer(1, 1)
		cr := runSDK(ctx, url, probe, c)
		if cr.err != nil {
			return fmt.Errorf("mto-crawl probe: %w", cr.err)
		}
		res.t.op(c.n == 1, "a probe drew no sample")
		cr.p.Close()
		res.setups = append(res.setups, cr.setup.Seconds())
		res.firsts = append(res.firsts, float64(c.first)/1e6)
	}
	return nil
}

// runMTOCrawl is the mto-crawl workload: one MTO walker, all three rewiring
// operations on, cold cache each round, over a snapshot: backend at zero
// latency.
func runMTOCrawl(ctx context.Context, dir string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{workload: "mto-crawl", procs: runtime.GOMAXPROCS(0), layers: map[string]metric{}}
	path, deg, edges, err := snapshotInput(dir)
	if err != nil {
		return nil, err
	}
	truth := avgDegree(deg)
	url := "snapshot:" + path
	spec := crawlSpec{alg: rewire.AlgMTO, walkers: 1, seed: seed, samples: mtoSamples}
	res.logf("input: Slashdot B preset, %d nodes, %d edges, true average degree %.4f; %d samples per round, MTO k=1, removal+replacement+extended criterion on", len(deg), edges, truth, mtoSamples)

	deadline := time.Now().Add(seconds)
	var (
		ref       *round
		overheads []float64
		lastA     analysis
		lastWall  time.Duration
		openSnap  []float64
		lastMem   memDelta
		removed   int
		added     int
	)
	for len(res.rounds) == 0 || time.Now().Before(deadline) {
		c := newConsumer(1, mtoSamples)
		c.deg = deg
		cr := runSDK(ctx, url, spec, c)
		if cr.err != nil {
			return nil, fmt.Errorf("mto-crawl round: %w", cr.err)
		}
		res.t.samples(mtoSamples, cr.samples, fmt.Sprintf("round %d delivered %d of %d samples", len(res.rounds), cr.samples, mtoSamples))
		est := c.estimate()
		relErr := rewire.RelativeError(est, truth)
		res.t.op(relErr <= avgDegreeTolerance, fmt.Sprintf("average-degree estimate %.4f is %.2f%% off the true %.4f (tolerance %.0f%%)", est, 100*relErr, truth, 100*avgDegreeTolerance))
		// The round's own set-up and first sample are left out: the probes
		// measure those (see mtoProbes).
		rd := roundOf(c)
		rd.first, rd.queries = 0, cr.p.UniqueQueries()
		removed, added = cr.sess.Rewired()
		lastMem = cr.mem
		res.addRound(rd, c.gaps)
		cur := res.rounds[len(res.rounds)-1]
		if ref == nil {
			ref = &cur
			res.logf("round 0: average-degree estimate %.4f, relative error %.3f%% (tolerance %.0f%%); %d removed, %d added edges", est, 100*relErr, 100*avgDegreeTolerance, removed, added)
		} else {
			res.t.op(cur.hash == ref.hash && cur.queries == ref.queries, fmt.Sprintf("round %d trajectory or bill differs from round 0", len(res.rounds)-1))
		}
		if !time.Now().Before(deadline) {
			res.heapMB = liveHeapMB()
		}
		cr.p.Close()
		if err := mtoProbe(ctx, url, spec, len(res.rounds), res); err != nil {
			return nil, err
		}

		if traced {
			st, err := newTracedStack(ctx, path, "", spec)
			if err != nil {
				return nil, err
			}
			tc := newConsumer(1, mtoSamples)
			err = st.stream(ctx, mtoSamples, tc)
			q := st.client.UniqueQueries()
			tr, ta := st.overlay.RemovedCount(), st.overlay.AddedCount()
			res.t.op(st.close() == nil, "closing the traced stack failed")
			res.t.op(err == nil && tc.n == mtoSamples, fmt.Sprintf("traced round: %v (%d samples)", err, tc.n))
			res.t.op(tc.hash() == cur.hash && q == cur.queries && tr == removed && ta == added,
				fmt.Sprintf("traced round differs from untraced: hash %x vs %x, queries %d vs %d, rewired %d/%d vs %d/%d", tc.hash(), cur.hash, q, cur.queries, tr, ta, removed, added))
			overheads = append(overheads, float64(tc.wall())/float64(cur.wall)-1)
			openSnap = append(openSnap, float64(st.openSnap))
			lastA, lastWall = st.tr.analyze(), tc.wall()
		}
	}
	if traced {
		m := res.layers
		stepLayers(&lastA, m)
		setLayer(m, "core.removed", float64(removed))
		setLayer(m, "core.added", float64(added))
		setLayer(m, "graph.snapshot_open_ns", median(openSnap))
		if st, err := os.Stat(path); err == nil {
			setLayer(m, "graph.snapshot_bytes_per_edge", float64(st.Size())/float64(edges))
		}
		allocLayers(lastMem, mtoSamples, m)
		setLayer(m, "trace.overhead", median(overheads))
		res.logf("%s", lastA.countLine())
		res.logf("%s", wallLine(&lastA, 1, lastWall))
		res.logf("tracing overhead: traced wall clock is %+.1f%% of untraced (median of %d pairs)", 100*median(overheads), len(overheads))
	}
	return res, nil
}
