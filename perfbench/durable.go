package main

import (
	"context"
	"fmt"
	"maps"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rewire"
)

// durableSamples is one leg of a durable-recrawl round. The cold leg runs
// at roughly half a million samples a second, so a leg this long is what
// keeps the journal, rather than set-up, in front.
const durableSamples = 200_000

// runDurableRecrawl is the durable-recrawl workload: an SRW fleet of two
// partitioned walkers over cache:DIR?src=snapshot:…, with the cache's
// default flush policy (fsync off: each record is one write syscall,
// segment seals and compaction output are fsync'd). Each round crawls cold
// into a fresh directory and closes, then reopens the directory — the WAL
// replay is the round's set-up — and repeats the identical crawl warm.
func runDurableRecrawl(ctx context.Context, dir string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{workload: "durable-recrawl", procs: runtime.GOMAXPROCS(0), layers: map[string]metric{}}
	path, deg, edges, err := snapshotInput(dir)
	if err != nil {
		return nil, err
	}
	spec := crawlSpec{alg: rewire.AlgSRW, walkers: 2, seed: seed, samples: durableSamples}
	res.logf("input: Slashdot B stand-in, %d nodes, %d edges; SRW k=2 partitioned, %d samples per leg; flush policy: default (fsync off)", len(deg), edges, durableSamples)

	deadline := time.Now().Add(seconds)
	var (
		overheads                    []float64
		coldA, warmA                 analysis
		coldWall                     time.Duration
		replays                      []float64
		lastMem                      memDelta
		replayed, appends, compacted float64
		walBytes                     int64
		coldRates, warmRates         []float64
	)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		cacheDir := filepath.Join(dir, fmt.Sprintf("cache-%d", n))
		cacheURL := "cache:" + cacheDir + "?src=" + url.QueryEscape("snapshot:"+path)

		cold := newConsumer(2, durableSamples)
		cr := runSDK(ctx, cacheURL, spec, cold)
		if cr.err != nil {
			return nil, fmt.Errorf("durable-recrawl cold leg: %w", cr.err)
		}
		res.t.samples(durableSamples, cr.samples, fmt.Sprintf("round %d cold leg delivered %d of %d samples", n, cr.samples, durableSamples))
		coldUnique, coldBills := cr.p.UniqueQueries(), cr.p.TenantBills()
		if ds, ok := cr.p.DurableCacheStats(); ok {
			appends, compacted = float64(ds.Appends), float64(ds.Compactions)
		}
		lastMem = cr.mem
		res.t.op(cr.p.Close() == nil, fmt.Sprintf("round %d: closing the cold cache failed", n))
		walBytes = dirBytes(cacheDir)

		// The replay allocates the whole cache and leaves a collection
		// running as the reopen returns; in about half the rounds it would
		// still run when the warm leg asks for its first sample, which then
		// takes 2-4 ms instead of 0.05. The warm leg therefore starts on a
		// settled heap.
		warmSpec := spec
		warmSpec.settle = true
		warm := newConsumer(2, durableSamples)
		wr := runSDK(ctx, cacheURL, warmSpec, warm)
		if wr.err != nil {
			return nil, fmt.Errorf("durable-recrawl warm leg: %w", wr.err)
		}
		res.t.samples(durableSamples, wr.samples, fmt.Sprintf("round %d warm leg delivered %d of %d samples", n, wr.samples, durableSamples))
		res.t.op(wr.p.UniqueQueries() == coldUnique, fmt.Sprintf("round %d: warm leg billed %d new queries (want 0)", n, wr.p.UniqueQueries()-coldUnique))
		res.t.op(maps.Equal(wr.p.TenantBills(), coldBills), fmt.Sprintf("round %d: recovered ledger %v differs from the cold ledger %v", n, wr.p.TenantBills(), coldBills))
		res.t.op(warm.hash() == cold.hash(), fmt.Sprintf("round %d: warm trajectory differs from the cold one", n))
		if ds, ok := wr.p.DurableCacheStats(); ok {
			replayed = float64(ds.Replayed)
		}
		coldRates = append(coldRates, float64(cold.n)/cold.wall().Seconds())
		warmRates = append(warmRates, float64(warm.n)/warm.wall().Seconds())
		// Both legs make one round: its rate covers the two legs' samples and
		// wall clocks, its gaps pool both legs, its set-up is the warm leg's
		// reopen (the replay) and its first sample the warm leg's, where lazy
		// work left over from the replay would show. The bill is the cold
		// leg's; the warm leg's is checked to be zero above.
		res.addRound(round{
			setup:   wr.setup,
			first:   warm.first,
			wall:    cold.wall() + warm.wall(),
			samples: cold.n + warm.n,
			queries: coldUnique,
			hash:    cold.hash(),
		}, append(cold.gaps, warm.gaps...))
		if n > 0 {
			res.t.op(res.rounds[0].hash == cold.hash() && res.rounds[0].queries == coldUnique, fmt.Sprintf("round %d trajectory or bill differs from round 0", n))
		}
		if !time.Now().Before(deadline) {
			res.heapMB = liveHeapMB()
		}
		res.t.op(wr.p.Close() == nil, fmt.Sprintf("round %d: closing the warm cache failed", n))
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}

		if traced {
			tdir := cacheDir + "-traced"
			ca, cw, err := tracedLeg(ctx, path, tdir, spec, cold, coldUnique, res)
			if err != nil {
				return nil, err
			}
			wa, _, err := tracedLeg(ctx, path, tdir, spec, warm, coldUnique, res)
			if err != nil {
				return nil, err
			}
			replays = append(replays, wa.replay.Seconds())
			overheads = append(overheads, float64(cw)/float64(cold.wall())-1)
			coldA, warmA, coldWall = ca.analysis, wa.analysis, cw
			if err := os.RemoveAll(tdir); err != nil {
				return nil, err
			}
		}
	}
	res.logf("by leg, median samples/s: cold %.0f, warm %.0f", median(coldRates), median(warmRates))
	if traced {
		m := res.layers
		stepLayers(&coldA, m)
		// The hit cost that matters here is the warm leg's: pure hits over
		// replayed entries.
		warmHit, _ := percentile(warmA.hits, 0.50)
		setLayer(m, "osn.hit_ns_p50", warmHit)
		p50, _ := percentile(coldA.kinds[kJournal].durs, 0.50)
		p99, _ := percentile(coldA.kinds[kJournal].durs, 0.99)
		setLayer(m, "durable.append_ns_p50", p50)
		setLayer(m, "durable.append_ns_p99", p99)
		if appends > 0 {
			setLayer(m, "durable.wal_bytes_per_entry", float64(walBytes)/appends)
		}
		setLayer(m, "durable.compactions", compacted)
		setLayer(m, "durable.replay_s", median(replays))
		setLayer(m, "durable.replayed_records", replayed)
		allocLayers(lastMem, durableSamples, m)
		setLayer(m, "trace.overhead", median(overheads))
		res.logf("%s", coldA.countLine())
		res.logf("cold leg %s", wallLine(&coldA, 2, coldWall))
		res.logf("tracing overhead: traced cold leg is %+.1f%% of untraced (median of %d pairs)", 100*median(overheads), len(overheads))
	}
	return res, nil
}

type legTrace struct {
	analysis analysis
	replay   time.Duration
}

// tracedLeg runs one traced leg over the cache directory tdir and checks it
// against the untraced leg ref: same trajectory hash, same bill.
func tracedLeg(ctx context.Context, path, tdir string, spec crawlSpec, ref *consumer, wantUnique int64, res *result) (legTrace, time.Duration, error) {
	st, err := newTracedStack(ctx, path, tdir, spec)
	if err != nil {
		return legTrace{}, 0, err
	}
	c := newConsumer(2, durableSamples)
	err = st.stream(ctx, durableSamples, c)
	q := st.client.UniqueQueries()
	res.t.op(err == nil && c.n == durableSamples, fmt.Sprintf("traced leg: %v (%d samples)", err, c.n))
	res.t.op(c.hash() == ref.hash() && q == wantUnique, fmt.Sprintf("traced leg differs from untraced: hash %x vs %x, queries %d vs %d", c.hash(), ref.hash(), q, wantUnique))
	res.t.op(st.close() == nil, "closing the traced cache failed")
	return legTrace{analysis: st.tr.analyze(), replay: st.replay}, c.wall(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
