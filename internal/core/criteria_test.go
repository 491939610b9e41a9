package core

import (
	"testing"
	"testing/quick"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

func TestRemovableTheorem3Examples(t *testing.T) {
	cases := []struct {
		name           string
		common, ku, kv int
		want           bool
	}{
		// The paper's Fig 3: u and v share 5 common neighbors, each with one
		// other edge (ku = kv = 7 counting each other): removable.
		{"fig3", 5, 7, 7, true},
		// Barbell clique edge: 9 common, degrees 10/10: removable.
		{"barbell-clique", 9, 10, 10, true},
		// Bridge of the barbell: no common neighbors, degrees 11/11.
		{"barbell-bridge", 0, 11, 11, false},
		// Tightness (Corollary 1): equality must NOT fire.
		// common=4 -> lhs = 2*(2+1) = 6; max = 6 -> 6 > 6 false.
		{"tight-boundary", 4, 6, 6, false},
		{"just-above", 5, 6, 6, true},
		// Asymmetric degrees use the max.
		{"asymmetric", 5, 3, 12, false},
		{"asymmetric-fires", 9, 3, 11, true},
		// Triangle edge: common=1, degrees 2/2: 2*(1+1)=4 > 2.
		{"triangle", 1, 2, 2, true},
		// Isolated pair (K2): common=0, degrees 1/1: 2*(0+1)=2 > 1 fires —
		// the samplers must guard this case by degree, not the criterion.
		{"k2", 0, 1, 1, true},
	}
	for _, c := range cases {
		if got := RemovableTheorem3(c.common, c.ku, c.kv); got != c.want {
			t.Errorf("%s: RemovableTheorem3(%d,%d,%d) = %v, want %v",
				c.name, c.common, c.ku, c.kv, got, c.want)
		}
	}
}

func TestRemovableTheorem3Symmetric(t *testing.T) {
	check := func(common, ku, kv uint8) bool {
		return RemovableTheorem3(int(common), int(ku), int(kv)) ==
			RemovableTheorem3(int(common), int(kv), int(ku))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRemovableTheorem3MonotoneInCommon(t *testing.T) {
	// More shared neighbors can only help.
	check := func(common, ku, kv uint8) bool {
		c := int(common)
		if RemovableTheorem3(c, int(ku), int(kv)) {
			return RemovableTheorem3(c+1, int(ku), int(kv))
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// mapDegreeCache is a test DegreeCache.
type mapDegreeCache map[graph.NodeID]int

func (m mapDegreeCache) CachedDegree(v graph.NodeID) (int, bool) {
	d, ok := m[v]
	return d, ok
}

func TestRemovableTheorem5ReducesToTheorem3(t *testing.T) {
	common := []graph.NodeID{4, 5, 6}
	for _, cache := range []DegreeCache{nil, mapDegreeCache{}} {
		if RemovableTheorem5(common, 5, 6, cache) != RemovableTheorem3(3, 5, 6) {
			t.Errorf("empty N* should reduce to Theorem 3 (cache=%v)", cache)
		}
	}
}

func TestRemovableTheorem5ExtensionFires(t *testing.T) {
	// Two common neighbors, both cached with degree 2. Theorem 3 at
	// max degree 5: 2*(⌈2/2⌉+1) = 4 > 5 false.
	// Theorem 5: rest=0 -> 2*(0+1)=2, bonus = (4-2)+(4-2) = 4 -> 6 > 5 true.
	common := []graph.NodeID{7, 8}
	cache := mapDegreeCache{7: 2, 8: 2}
	if RemovableTheorem3(len(common), 5, 5) {
		t.Fatal("Theorem 3 should not fire in this configuration")
	}
	if !RemovableTheorem5(common, 5, 5, cache) {
		t.Error("Theorem 5 should fire with two degree-2 common neighbors")
	}
}

func TestRemovableTheorem5PaperFig5(t *testing.T) {
	// Fig 5: one common neighbor w with kw = 3 known. With ku = kv = 3:
	// Theorem 3: 2*(⌈1/2⌉+1) = 4 > 3 fires anyway; make degrees 4 so only
	// the extension fires: Thm3: 4 > 4 false; Thm5: rest=0 -> 2 + (4-3)=3 > 4
	// false. Use kw=2: bonus 2 -> 4 > 4 false. Two common neighbors needed
	// at degree 4: Thm3: 2*(1+1)=4 > 4 false; Thm5 with both kw=3:
	// 2 + 1 + 1 = 4 > 4 false; kw=2,3: 2+2+1 = 5 > 4 true.
	common := []graph.NodeID{1, 2}
	cache := mapDegreeCache{1: 2, 2: 3}
	if RemovableTheorem3(2, 4, 4) {
		t.Fatal("Theorem 3 must not fire")
	}
	if !RemovableTheorem5(common, 4, 4, cache) {
		t.Error("Theorem 5 must fire with degree-2 and degree-3 common neighbors")
	}
}

func TestRemovableTheorem5IgnoresHighDegreeNeighbors(t *testing.T) {
	// Cached common neighbors with kw >= 4 contribute nothing (dragging
	// them is never profitable, §III-D).
	common := []graph.NodeID{1, 2}
	cacheHigh := mapDegreeCache{1: 9, 2: 14}
	if RemovableTheorem5(common, 5, 5, cacheHigh) != RemovableTheorem3(2, 5, 5) {
		t.Error("high-degree cached neighbors must not change the verdict")
	}
	// Degree-1 neighbors are outside N* too (kw must be in [2,3]).
	cacheLow := mapDegreeCache{1: 1, 2: 1}
	if RemovableTheorem5(common, 5, 5, cacheLow) != RemovableTheorem3(2, 5, 5) {
		t.Error("degree-1 cached neighbors must not change the verdict")
	}
}

// theorem5Full is RemovableTheorem5 without the early exit: it reads the
// cache for every common neighbor and then evaluates the formula once.
func theorem5Full(common []graph.NodeID, ku, kv int, cache DegreeCache) bool {
	nStar, bonus := 0, 0
	for _, w := range common {
		if kw, ok := cache.CachedDegree(w); ok && kw >= 2 && kw <= 3 {
			nStar++
			bonus += 4 - kw
		}
	}
	rest := len(common) - nStar
	return 2*((rest+1)/2+1)+bonus > max(ku, kv)
}

// countingCache is a mapDegreeCache that counts its reads.
type countingCache struct {
	m     mapDegreeCache
	reads int
}

func (c *countingCache) CachedDegree(v graph.NodeID) (int, bool) {
	c.reads++
	return c.m.CachedDegree(v)
}

// TestRemovableTheorem5EarlyExitExact checks that stopping the cache reads
// once the verdict is decided changes no verdict, under random common
// lists, endpoint degrees around the decision boundary, and cached-degree
// maps of every density, and that no member is read twice.
func TestRemovableTheorem5EarlyExitExact(t *testing.T) {
	check := func(seed uint64, n, ku, kv, density uint8) bool {
		r := rng.New(seed)
		common := make([]graph.NodeID, int(n)%40)
		m := mapDegreeCache{}
		for i := range common {
			common[i] = graph.NodeID(3*i + r.Intn(3))
			if r.Intn(8) < int(density%9) {
				m[common[i]] = 1 + r.Intn(5) // degrees 1..5: in N* or not
			}
		}
		span := uint8(2*len(common) + 8)
		du, dv := int(ku%span), int(kv%span)
		cache := &countingCache{m: m}
		if RemovableTheorem5(common, du, dv, cache) != theorem5Full(common, du, dv, m) {
			t.Logf("common %v, cache %v, ku %d, kv %d", common, m, du, dv)
			return false
		}
		return cache.reads <= len(common)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestPrunableRejectsEveryCommonList checks the sampler's pre-merge prune:
// when it fires, no common list that fits both endpoints (at most min(ku,
// kv) members) passes Removable, whatever the cache says.
func TestPrunableRejectsEveryCommonList(t *testing.T) {
	all := mapDegreeCache{}
	for v := graph.NodeID(0); v < 64; v++ {
		all[v] = 2 // the largest Theorem 5 bonus per member
	}
	for ku := 0; ku < 40; ku++ {
		for kv := 0; kv < 40; kv++ {
			if !prunable(ku, kv) {
				continue
			}
			common := make([]graph.NodeID, min(ku, kv))
			for i := range common {
				common[i] = graph.NodeID(i)
			}
			if Removable(common, ku, kv, all) || Removable(common, ku, kv, nil) {
				t.Errorf("prunable(%d, %d) but %d common neighbors pass", ku, kv, len(common))
			}
		}
	}
}

func TestRemovableCombinedContainsTheorem3(t *testing.T) {
	// The combined Removable must fire whenever Theorem 3 alone does,
	// regardless of what the degree cache contains (the ⌈·/2⌉ parity means
	// the raw Theorem 5 formula alone does NOT have this containment —
	// that is exactly why Removable is the OR of the two).
	check := func(nCommon, ku, kv uint8, degrees []uint8) bool {
		c := int(nCommon % 12)
		common := make([]graph.NodeID, c)
		cache := mapDegreeCache{}
		for i := range common {
			common[i] = graph.NodeID(i)
			if i < len(degrees) {
				cache[graph.NodeID(i)] = int(degrees[i]%5) + 1 // degrees 1..5
			}
		}
		if RemovableTheorem3(c, int(ku%20), int(kv%20)) {
			return Removable(common, int(ku%20), int(kv%20), cache) &&
				Removable(common, int(ku%20), int(kv%20), nil)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// stubDegreeCache answers ids ≡ 1, 2 (mod 3) with degree 2 or 3 — the
// degrees that earn the Theorem 5 bonus, so its left side reaches the
// prune's bound — misses ids ≡ 0 (mod 3), and counts its reads.
type stubDegreeCache struct{ reads int }

func (s *stubDegreeCache) CachedDegree(v graph.NodeID) (int, bool) {
	s.reads++
	if v%3 == 0 {
		return 0, false
	}
	return 2 + int(v%2), true
}

// TestRemovablePruneExact checks that the prune before the Theorem 5 loop
// changes no verdict — Removable is exactly the OR of the two certificates —
// and that a pruned edge reads nothing from the cache.
func TestRemovablePruneExact(t *testing.T) {
	check := func(ids []uint8, ku, kv uint8) bool {
		common := make([]graph.NodeID, len(ids)%12)
		for i := range common {
			common[i] = graph.NodeID(ids[i])
		}
		// Degrees near the bound, where a wrong prune would show.
		span := uint8(2*len(common) + 8)
		du, dv := int(ku%span), int(kv%span)
		want := RemovableTheorem3(len(common), du, dv) || RemovableTheorem5(common, du, dv, &stubDegreeCache{})
		cache := &stubDegreeCache{}
		if Removable(common, du, dv, cache) != want {
			return false
		}
		return 2*len(common)+3 > max(du, dv) || cache.reads == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRemovableParityCounterexample(t *testing.T) {
	// The documented counterexample: 3 common neighbors, one cached at
	// degree 3, max degree 5. Theorem 3 fires; the raw Theorem 5 formula
	// does not; the combined Removable must.
	common := []graph.NodeID{1, 2, 3}
	cache := mapDegreeCache{1: 3}
	if !RemovableTheorem3(3, 5, 5) {
		t.Fatal("Theorem 3 should fire")
	}
	if RemovableTheorem5(common, 5, 5, cache) {
		t.Fatal("raw Theorem 5 formula should not fire here (parity loss)")
	}
	if !Removable(common, 5, 5, cache) {
		t.Error("combined Removable must fire")
	}
}

func TestReplaceablePivot(t *testing.T) {
	for d, want := range map[int]bool{1: false, 2: false, 3: true, 4: false, 10: false} {
		if got := ReplaceablePivot(d); got != want {
			t.Errorf("ReplaceablePivot(%d) = %v, want %v (Corollary 2: only 3)", d, got, want)
		}
	}
}
