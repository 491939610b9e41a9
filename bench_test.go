// One testing.B benchmark per paper table/figure (at reduced scale so the
// full suite stays minutes, not hours — the cmd/mto-bench binary runs the
// paper-scale versions), plus micro-benchmarks, design-choice ablations,
// and the fleet-scaling pair (see README.md).
package rewire_test

import (
	"testing"
	"time"

	"rewire/internal/core"
	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/exp"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/spectral"
	"rewire/internal/walk"
)

// --- Paper artifacts -------------------------------------------------------

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table1(false, 40, 1)
		if len(res.Rows) != 3 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkRunningExampleBarbell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunningExample(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PhiRM <= res.Phi0 {
			b.Fatal("no conductance gain")
		}
	}
}

func benchFig7(b *testing.B, dataset string) {
	ds := exp.DatasetByName(dataset, false)
	if ds == nil {
		b.Fatal("missing dataset")
	}
	cfg := exp.QuickFig7Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(*ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Epinions(b *testing.B)  { benchFig7(b, "Epinions") }
func BenchmarkFig7SlashdotA(b *testing.B) { benchFig7(b, "Slashdot A") }
func BenchmarkFig7SlashdotB(b *testing.B) { benchFig7(b, "Slashdot B") }

func BenchmarkFig8KLDivergence(b *testing.B) {
	ds := exp.SmallDatasets()[:1]
	cfg := exp.QuickFig8Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8(ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9GewekeSweep(b *testing.B) {
	ds := exp.DatasetByName("Slashdot B", false)
	cfg := exp.QuickFig9Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(*ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10LatentMixing(b *testing.B) {
	cfg := exp.QuickFig10Config()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11GooglePlus(b *testing.B) {
	cfg := exp.QuickFig11Config()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(false, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem6Bound(b *testing.B) {
	cfg := exp.QuickTheorem6Config()
	for i := 0; i < b.N; i++ {
		res, err := exp.Theorem6(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.GainBound < 1.04 || res.GainBound > 1.06 {
			b.Fatalf("gain bound %v", res.GainBound)
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// benchSamplerVariant measures unique-query cost per sample for one MTO
// configuration on the small Epinions stand-in.
func benchSamplerVariant(b *testing.B, cfg core.Config) {
	g := exp.SmallDatasets()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := osn.NewService(g, nil, osn.Config{})
		client := osn.NewClient(svc)
		s := core.NewSampler(client, 0, cfg, rng.New(uint64(i+1)))
		info := func(v graph.NodeID) (int, estimate.Attrs) { return client.Degree(v), estimate.Attrs{} }
		res := estimate.RunSession(s, s, estimate.AvgDegree(), info, client.UniqueQueries,
			estimate.SessionConfig{BurnIn: diag.NewGeweke(0.3, 200), MaxBurnInSteps: 4000, Samples: 2000})
		b.ReportMetric(float64(res.FinalCost), "queries/run")
	}
}

func BenchmarkAblationCriterionOriginal(b *testing.B) {
	benchSamplerVariant(b, core.DefaultConfig())
}

func BenchmarkAblationCriterionOverlay(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Criterion = core.EvalOverlay
	benchSamplerVariant(b, cfg)
}

func BenchmarkAblationNoExtension(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.UseExtended = false
	benchSamplerVariant(b, cfg)
}

func BenchmarkAblationLazyProb1(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.LazyProb = 1.0
	benchSamplerVariant(b, cfg)
}

func BenchmarkAblationRemovalOnly(b *testing.B) {
	benchSamplerVariant(b, core.RemovalOnlyConfig())
}

func BenchmarkAblationReplacementOnly(b *testing.B) {
	benchSamplerVariant(b, core.ReplacementOnlyConfig())
}

func BenchmarkAblationWeightExact(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Weights = core.WeightExact
	benchSamplerVariant(b, cfg)
}

func BenchmarkAblationWeightSampled(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Weights = core.WeightSampled
	benchSamplerVariant(b, cfg)
}

// --- Fleet scaling -----------------------------------------------------------

// benchFleetSamples draws a fixed sample budget with k shared-overlay MTO
// samplers over one shared caching client, either concurrently (walk.Fleet,
// k goroutines) or sequentially round-robin (walk.Parallel, one goroutine).
// The service charges a real 200µs round-trip per unique query — the
// network cost a crawler actually pays — so comparing FleetConcurrentK16
// against FleetSequentialK16 measures the wall-clock win of overlapping
// in-flight queries (and, on multicore hardware, the sampling CPU too).
func benchFleetSamples(b *testing.B, k int, concurrent bool) {
	g := exp.SmallDatasets()[0].Graph
	const samples = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := osn.NewService(g, nil, osn.Config{RealLatency: 200 * time.Microsecond})
		client := osn.NewClient(svc)
		r := rng.New(uint64(i + 1))
		starts := core.SpreadStarts(k, g.NumNodes(), r)
		if concurrent {
			f, _ := core.NewFleet(client, starts, core.DefaultConfig(), r)
			f.Samples(samples)
		} else {
			p, _ := core.NewParallelSamplers(client, starts, core.DefaultConfig(), r)
			walk.Run(p, samples)
		}
		b.ReportMetric(float64(client.UniqueQueries()), "queries/run")
	}
}

func BenchmarkFleetConcurrentK1(b *testing.B)  { benchFleetSamples(b, 1, true) }
func BenchmarkFleetConcurrentK4(b *testing.B)  { benchFleetSamples(b, 4, true) }
func BenchmarkFleetConcurrentK16(b *testing.B) { benchFleetSamples(b, 16, true) }

func BenchmarkFleetSequentialK1(b *testing.B)  { benchFleetSamples(b, 1, false) }
func BenchmarkFleetSequentialK4(b *testing.B)  { benchFleetSamples(b, 4, false) }
func BenchmarkFleetSequentialK16(b *testing.B) { benchFleetSamples(b, 16, false) }

// --- Prefetch pipeline -------------------------------------------------------

// benchFleetPrefetch draws a fixed partitioned sample budget with a k-member
// SRW fleet over one prefetching client, paying a real 200µs round-trip per
// service query. The budget is partitioned (not raced), so the trajectories
// — and with them the unique-query bill reported as queries/run — are
// byte-identical across strategies: compare BenchmarkFleetPrefetchOff
// against the strategy variants to read off the pure wall-clock win of
// speculation at equal query cost (≥2x for the pipelined strategies; see
// bench/baseline.json where CI gates exactly that).
func benchFleetPrefetch(b *testing.B, strategy string) {
	ds := exp.SmallDatasets()[0]
	cfg := exp.QuickPrefetchExpConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunPrefetchFleet(ds, cfg, strategy, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkFleetPrefetchOff(b *testing.B)      { benchFleetPrefetch(b, exp.PrefetchNone) }
func BenchmarkFleetPrefetchNextHop(b *testing.B)  { benchFleetPrefetch(b, exp.PrefetchNextHop) }
func BenchmarkFleetPrefetchFrontier(b *testing.B) { benchFleetPrefetch(b, exp.PrefetchFrontier) }

// benchMTOPrefetch is the single-walker MTO counterpart: pivot-candidate
// prefetch against the identical plain run.
func benchMTOPrefetch(b *testing.B, prefetch bool) {
	ds := exp.SmallDatasets()[0]
	cfg := exp.QuickPrefetchExpConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunPrefetchMTO(ds, cfg, prefetch, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkMTOPivotPrefetchOff(b *testing.B) { benchMTOPrefetch(b, false) }
func BenchmarkMTOPivotPrefetchOn(b *testing.B)  { benchMTOPrefetch(b, true) }

// --- Storage-engine contention ----------------------------------------------

// benchContention hammers one shared client with k zero-latency SRW walkers
// on k goroutines (partitioned step quotas, no fleet plumbing), isolating
// the storage engine's locking cost. shards=1 is the legacy single-RWMutex
// layout every store used before the sharded engine; shards=0 selects the
// sharded default. The gap between the two is a multicore effect — on one
// core they tie — which is why CI gates it through the conservative floor in
// bench/baseline.json rather than through these smoke benchmarks.
func benchContention(b *testing.B, k, shards int) {
	ds := exp.SmallDatasets()[0]
	cfg := exp.QuickContentionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunContention(ds, k, shards, cfg.Samples, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkContentionLegacyK1(b *testing.B)   { benchContention(b, 1, 1) }
func BenchmarkContentionLegacyK4(b *testing.B)   { benchContention(b, 4, 1) }
func BenchmarkContentionLegacyK16(b *testing.B)  { benchContention(b, 16, 1) }
func BenchmarkContentionLegacyK64(b *testing.B)  { benchContention(b, 64, 1) }
func BenchmarkContentionShardedK1(b *testing.B)  { benchContention(b, 1, 0) }
func BenchmarkContentionShardedK4(b *testing.B)  { benchContention(b, 4, 0) }
func BenchmarkContentionShardedK16(b *testing.B) { benchContention(b, 16, 0) }
func BenchmarkContentionShardedK64(b *testing.B) { benchContention(b, 64, 0) }

// --- Micro-benchmarks of the hot paths --------------------------------------

// BenchmarkRemovalCriterion is the EvalOriginal removal criterion as the
// MTO sampler runs it on one edge: the overlay connectivity guard (on a
// fresh overlay the overlay lists are the base lists), the base
// common-neighbor intersection into a reused buffer, then core.Removable
// with the warm client as the Theorem 5 degree cache. Every read is a hit.
func BenchmarkRemovalCriterion(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	client := warmClient(b, g)
	edges := g.Edges()
	var common []graph.NodeID
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		ub, vb := client.Neighbors(e.U), client.Neighbors(e.V)
		if !graph.HasCommonSorted(ub, vb) {
			continue
		}
		common = graph.IntersectSortedInto(common, ub, vb)
		if core.Removable(common, len(ub), len(vb), client) {
			fired++
		}
	}
	b.ReportMetric(float64(fired)/float64(b.N), "fired/op")
}

func BenchmarkMTOStep(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	s := core.NewSampler(g, 0, core.DefaultConfig(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMTOStepViaClient is BenchmarkMTOStep over the stack a Session
// builds: the overlay reads a warm osn.Client through a walk.Bound, so each
// step also pays the Bound and cache-hit layers.
func BenchmarkMTOStepViaClient(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	ov := core.NewOverlay(walk.NewBound(warmClient(b, g)))
	s := core.NewSamplerOn(ov, 0, core.DefaultConfig(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

var sinkList []graph.NodeID

// BenchmarkOverlayNeighbors times one Overlay.Neighbors read over a warm
// client: a hit on a materialized list, and a first read (miss) of a node
// without and with a rewiring delta. The miss rows read every node once per
// fresh overlay, built with the timer stopped; miss_delta restores a delta
// that removes one edge at every node.
func BenchmarkOverlayNeighbors(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	client := warmClient(b, g)
	n := g.NumNodes()
	var removed []graph.EdgeKey
	for v := graph.NodeID(0); int(v) < n; v++ {
		if nb := g.Neighbors(v); len(nb) > 0 {
			removed = append(removed, graph.KeyOf(v, nb[0]))
		}
	}
	b.Run("hit", func(b *testing.B) {
		ov := core.NewOverlay(client)
		for v := graph.NodeID(0); int(v) < n; v++ {
			ov.Neighbors(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkList = ov.Neighbors(graph.NodeID(i % n))
		}
	})
	for _, c := range []struct {
		name  string
		delta []graph.EdgeKey
	}{{"miss_nodelta", nil}, {"miss_delta", removed}} {
		b.Run(c.name, func(b *testing.B) {
			var ov *core.Overlay
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					ov = core.NewOverlay(client)
					ov.RestoreDelta(c.delta, nil, nil)
					b.StartTimer()
				}
				sinkList = ov.Neighbors(graph.NodeID(i % n))
			}
		})
	}
}

// warmClient returns a client over g with every node demanded once, so
// every read below is a hit.
func warmClient(b *testing.B, g *graph.Graph) *osn.Client {
	client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := client.Query(graph.NodeID(v)); err != nil {
			b.Fatal(err)
		}
	}
	return client
}

// BenchmarkClientHit is the cache layer's demand-hit cost: one Query of a
// demanded node.
func BenchmarkClientHit(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	client := warmClient(b, g)
	n := g.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(graph.NodeID(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientCachedDegree is the cost of one of the Theorem 5
// criterion's free degree lookups.
func BenchmarkClientCachedDegree(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	client := warmClient(b, g)
	n := g.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := client.CachedDegree(graph.NodeID(i % n)); !ok {
			b.Fatal("warm node missed")
		}
	}
}

func BenchmarkSRWStepViaClient(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	w, _, err := exp.NewWalker(exp.AlgSRW, client, g.NumNodes(), 0, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkBuildOverlayEpinionsSmall(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildOverlay(g, core.BuildOptions{Removal: true, Replacement: true}, rng.New(uint64(i+1)))
	}
}

func BenchmarkSocialGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Social(gen.SocialConfig{Nodes: 2659, TargetEdges: 10012}, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactConductance22(b *testing.B) {
	g := gen.Barbell(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.ExactConductance(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambda2PowerIteration(b *testing.B) {
	g := exp.SmallDatasets()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Lambda2(g, 500, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGewekeObserve(b *testing.B) {
	m := diag.NewGeweke(0.1, 100)
	for i := 0; i < b.N; i++ {
		m.Observe(float64(i % 17))
		if i%1000 == 999 {
			m.Converged()
		}
	}
}
