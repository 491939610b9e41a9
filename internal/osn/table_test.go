package osn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/store"
)

// TestDemandedTableBillingExact hammers overlapping ids from demand walkers
// (single and batched queries) while a running prefetch pool fetches the
// same ids and ids no walker demands (run with -race). Once everything
// settles, the ledger must be exact and the table must hold exactly the
// demanded ids: speculative entries stay invisible to the free-knowledge
// reads until a demand upgrades them.
func TestDemandedTableBillingExact(t *testing.T) {
	g := prefetchGraph(t)
	n := g.NumNodes()
	demandable := n / 2 // walkers demand ids below this; the pool hints all
	svc := NewService(g, nil, Config{RealLatency: 20 * time.Microsecond})
	client := NewPrefetchingClient(svc, PrefetchConfig{Workers: 4, Depth: 1, Queue: 4096})

	const walkers = 8
	const queriesPerWalker = 200
	var mu sync.Mutex
	demanded := make(map[graph.NodeID]bool)
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < queriesPerWalker; i++ {
				v := graph.NodeID(r.Intn(demandable))
				u := graph.NodeID(r.Intn(demandable))
				client.Prefetch(graph.NodeID(r.Intn(n)), u)
				var err error
				if i%2 == 0 {
					_, err = client.Query(v)
				} else {
					_, err = client.QueryBatch([]graph.NodeID{v, u})
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Free reads race the commits; any answer they give must be
				// a demanded one.
				if d, ok := client.CachedDegree(u); ok && d != g.Degree(u) {
					t.Errorf("CachedDegree(%d) = %d, want %d", u, d, g.Degree(u))
				}
				mu.Lock()
				demanded[v] = true
				if i%2 != 0 {
					demanded[u] = true
				}
				mu.Unlock()
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	client.StopPrefetch()

	unique, spec := client.UniqueQueries(), client.SpeculativeCount()
	if want := int64(len(demanded)); unique != want {
		t.Errorf("UniqueQueries = %d, want %d distinct demanded ids", unique, want)
	}
	if size := int64(client.CacheSize()); unique+spec != size {
		t.Errorf("unique %d + speculative %d != CacheSize %d", unique, spec, size)
	}
	var specOnly []graph.NodeID
	for v := graph.NodeID(0); int(v) < n; v++ {
		cached := client.Cached(v)
		if cached != demanded[v] {
			t.Errorf("Cached(%d) = %v, demanded %v", v, cached, demanded[v])
		}
		if published := client.demanded.Load(v) != nil; published != demanded[v] {
			t.Errorf("id %d published = %v, demanded %v", v, published, demanded[v])
		}
		if !cached && client.Known(v) {
			specOnly = append(specOnly, v)
		}
	}
	if int64(len(specOnly)) != spec {
		t.Fatalf("%d speculative-only ids, SpeculativeCount %d", len(specOnly), spec)
	}
	if len(specOnly) == 0 {
		t.Fatal("the pool left no speculative entry to upgrade")
	}

	v := specOnly[0]
	if _, ok := client.CachedDegree(v); ok {
		t.Fatalf("speculative id %d visible to CachedDegree", v)
	}
	if _, err := client.Query(v); err != nil {
		t.Fatal(err)
	}
	if !client.Cached(v) || client.demanded.Load(v) == nil {
		t.Fatalf("upgraded id %d not demand-cached", v)
	}
	if d, ok := client.CachedDegree(v); !ok || d != g.Degree(v) {
		t.Fatalf("CachedDegree(%d) = %d, %v after upgrade", v, d, ok)
	}
	if got := client.UniqueQueries(); got != unique+1 {
		t.Errorf("upgrade billed %d queries, want 1", got-unique)
	}
	if got := client.SpeculativeCount(); got != spec-1 {
		t.Errorf("SpeculativeCount = %d after upgrade, want %d", got, spec-1)
	}
	if got := int64(client.CacheSize()); got != unique+spec {
		t.Errorf("CacheSize = %d after upgrade, want %d", got, unique+spec)
	}
}

// TestSeedCachedVisibility checks the replay seam: an unbilled seed stays
// speculative (known, but invisible to free reads), a billed one is a hit.
func TestSeedCachedVisibility(t *testing.T) {
	client := NewClient(NewService(prefetchGraph(t), nil, Config{}))
	resp := Response{User: 5, Neighbors: []graph.NodeID{1, 2, 3}}
	client.SeedCached(5, resp, false, "")
	if client.Cached(5) || !client.Known(5) {
		t.Fatalf("unbilled seed: Cached %v Known %v, want false true", client.Cached(5), client.Known(5))
	}
	if _, ok := client.CachedDegree(5); ok {
		t.Fatal("unbilled seed visible to CachedDegree")
	}
	resp.User = 6
	client.SeedCached(6, resp, true, "")
	if d, ok := client.CachedDegree(6); !client.Cached(6) || !ok || d != 3 {
		t.Fatalf("billed seed: Cached %v CachedDegree %d %v", client.Cached(6), d, ok)
	}
	if client.UniqueQueries() != 1 || client.SpeculativeCount() != 1 || client.CacheSize() != 2 {
		t.Fatalf("ledger unique %d speculative %d size %d, want 1 1 2",
			client.UniqueQueries(), client.SpeculativeCount(), client.CacheSize())
	}
}

// anyIDBackend answers every id, including ids outside the table's range,
// with a one-neighbor list.
type anyIDBackend struct {
	mu      sync.Mutex
	fetches int
}

func (b *anyIDBackend) Fetch(_ context.Context, ids []graph.NodeID) ([]Response, error) {
	b.mu.Lock()
	b.fetches += len(ids)
	b.mu.Unlock()
	out := make([]Response, len(ids))
	for i, v := range ids {
		out[i] = Response{User: v, Neighbors: []graph.NodeID{v + 1}}
	}
	return out, nil
}

// TestTableRangeEdges checks ids at the table's edges: a negative id is never
// published, an id far past the first page round-trips through the table,
// and an id past the table's range is still served, billed once and visible
// to the free reads through the map.
func TestTableRangeEdges(t *testing.T) {
	if _, err := NewClient(NewService(prefetchGraph(t), nil, Config{})).Query(-1); !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("Query(-1) on a service = %v, want ErrNoSuchUser", err)
	}
	be := &anyIDBackend{}
	client := NewClient(be)
	for _, v := range []graph.NodeID{-1, 1 << 20, store.TableLimit, store.TableLimit + 7} {
		for i := 0; i < 2; i++ {
			r, err := client.Query(v)
			if err != nil || r.User != v {
				t.Fatalf("Query(%d) = %+v, %v", v, r, err)
			}
		}
		if d, ok := client.CachedDegree(v); !client.Cached(v) || !client.Known(v) || !ok || d != 1 {
			t.Errorf("id %d: Cached %v Known %v CachedDegree %d %v", v, client.Cached(v), client.Known(v), d, ok)
		}
		if nb, ok := client.CachedNeighbors(v); !ok || len(nb) != 1 || nb[0] != v+1 {
			t.Errorf("CachedNeighbors(%d) = %v, %v", v, nb, ok)
		}
		if published := client.demanded.Load(v) != nil; published != client.demanded.Covers(v) {
			t.Errorf("id %d published = %v, want %v", v, published, client.demanded.Covers(v))
		}
	}
	if client.demanded.Load(-1) != nil {
		t.Error("a negative id was published")
	}
	if got := client.UniqueQueries(); got != 4 || be.fetches != 4 {
		t.Errorf("UniqueQueries %d, backend fetches %d, want 4 each", got, be.fetches)
	}
	if got := client.CacheSize(); got != 4 {
		t.Errorf("CacheSize = %d, want 4", got)
	}
}

// TestHitPathZeroAllocs requires the demand hit and the free degree lookup
// to allocate nothing.
func TestHitPathZeroAllocs(t *testing.T) {
	g := prefetchGraph(t)
	client := NewClient(NewService(g, nil, Config{}))
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if _, err := client.Query(graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	v := 0
	next := func() graph.NodeID { v = (v + 1) % n; return graph.NodeID(v) }
	if a := testing.AllocsPerRun(10_000, func() { _, _ = client.Query(next()) }); a != 0 {
		t.Errorf("Query hit allocates %v times/op; want 0", a)
	}
	if a := testing.AllocsPerRun(10_000, func() { _, _ = client.CachedDegree(next()) }); a != 0 {
		t.Errorf("CachedDegree allocates %v times/op; want 0", a)
	}
}
