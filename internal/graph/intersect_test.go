package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"rewire/internal/rng"
)

// intersectRef is the map-based reference every kernel is checked against:
// the members of b that occur in a, in b's (ascending) order.
func intersectRef(a, b []NodeID) []NodeID {
	inA := make(map[NodeID]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	var out []NodeID
	for _, x := range b {
		if inA[x] {
			out = append(out, x)
		}
	}
	return out
}

// ascendingIDs draws n strictly ascending ids with gaps in [1, maxGap].
func ascendingIDs(r *rng.Rand, n, maxGap int) []NodeID {
	out := make([]NodeID, n)
	v := NodeID(r.Intn(maxGap))
	for i := range out {
		out[i] = v
		v += NodeID(1 + r.Intn(maxGap))
	}
	return out
}

// kernelsAgree checks IntersectSortedInto (fresh, short-capacity and
// long-capacity dst), IntersectSorted, CountIntersectSorted and
// HasCommonSorted against intersectRef, in both argument orders.
func kernelsAgree(t *testing.T, a, b []NodeID) {
	t.Helper()
	want := intersectRef(a, b)
	for _, p := range [][2][]NodeID{{a, b}, {b, a}} {
		x, y := p[0], p[1]
		if got := IntersectSorted(x, y); !slices.Equal(got, want) || (len(want) == 0) != (got == nil) {
			t.Fatalf("IntersectSorted(%v, %v) = %v, want %v", x, y, got, want)
		}
		short := []NodeID{-1}
		if got := IntersectSortedInto(short, x, y); !slices.Equal(got, want) {
			t.Fatalf("IntersectSortedInto(cap 1, %v, %v) = %v, want %v", x, y, got, want)
		}
		long := make([]NodeID, 3, len(x)+len(y)+3)
		for i := range long {
			long[i] = -1
		}
		got := IntersectSortedInto(long, x, y)
		if !slices.Equal(got, want) {
			t.Fatalf("IntersectSortedInto(long cap, %v, %v) = %v, want %v", x, y, got, want)
		}
		if len(got) > 0 && &got[0] != &long[:1][0] {
			t.Fatalf("IntersectSortedInto reallocated a dst of capacity %d for %d results", cap(long), len(got))
		}
		if n := CountIntersectSorted(x, y); n != len(want) {
			t.Fatalf("CountIntersectSorted(%v, %v) = %d, want %d", x, y, n, len(want))
		}
		if has := HasCommonSorted(x, y); has != (len(want) > 0) {
			t.Fatalf("HasCommonSorted(%v, %v) = %v, want %v", x, y, has, len(want) > 0)
		}
	}
}

// TestIntersectKernelsQuick draws list pairs whose length ratio runs from
// 1:1 to 1:1000, with a gap scale that makes shared ids common, rare, or
// absent.
func TestIntersectKernelsQuick(t *testing.T) {
	ratios := []int{1, 2, 3, 7, 15, 16, 17, 31, 64, 255, 256, 1000}
	check := func(seed uint64, ratioIdx, shortLen, gap uint8) bool {
		r := rng.New(seed)
		ratio := ratios[int(ratioIdx)%len(ratios)]
		n := int(shortLen) % 9
		maxGap := 1 + int(gap)%6
		a := ascendingIDs(r, n, maxGap*ratio)
		b := ascendingIDs(r, n*ratio, maxGap)
		kernelsAgree(t, a, b)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectKernelsEdgeCases(t *testing.T) {
	r := rng.New(7)
	long := ascendingIDs(r, 4000, 3)
	evens := make([]NodeID, 500)
	odds := make([]NodeID, 500)
	for i := range evens {
		evens[i], odds[i] = NodeID(2*i), NodeID(2*i+1)
	}
	cases := map[string][2][]NodeID{
		"both empty":             {nil, nil},
		"one empty":              {nil, long},
		"empty non-nil":          {{}, long[:5]},
		"disjoint interleaved":   {evens, odds},
		"disjoint ranges":        {long[:100], long[100:]},
		"disjoint skewed":        {odds[:3], evens},
		"identical":              {long, slices.Clone(long)},
		"identical single":       {{42}, {42}},
		"prefix":                 {long[:10], long},
		"suffix":                 {long[len(long)-10:], long},
		"past the end":           {{long[len(long)-1] + 1}, long},
		"negative ids":           {{-9, -3, 0, 5}, {-3, 5, 6}},
		"one shared at the edge": {{long[0]}, long},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { kernelsAgree(t, c[0], c[1]) })
	}
}

// decodeIDs turns fuzz bytes into a strictly ascending id list: each byte
// is the gap to the next id, minus one.
func decodeIDs(data []byte) []NodeID {
	out := make([]NodeID, len(data))
	v := NodeID(0)
	for i, d := range data {
		v += NodeID(d) + 1
		out[i] = v
	}
	return out
}

// FuzzIntersectSorted checks the three intersection kernels against the
// reference on fuzzer-chosen lists: the fuzzer steers lengths and gaps (and
// with them the overlap).
func FuzzIntersectSorted(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte{0, 1, 0})
	f.Add([]byte{5}, make([]byte, 100))
	f.Add([]byte{1, 1, 1, 1}, []byte{0, 2, 0, 2, 0, 2, 0, 2})
	f.Add([]byte{200, 3}, []byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		kernelsAgree(t, decodeIDs(ra), decodeIDs(rb))
	})
}

var sinkIDs []NodeID

// BenchmarkIntersectSorted times IntersectSortedInto into a reused buffer
// (the sampler's removal-criterion shape) on equal-length lists and on lists
// 16 and 256 times longer than their partner. Each op intersects
// the next of 64 distinct pairs, so the branch predictor cannot learn one
// pair's comparison outcomes the way it would when a single pair repeats.
func BenchmarkIntersectSorted(b *testing.B) {
	for _, c := range []struct {
		name        string
		short, long int
	}{{"balanced", 256, 256}, {"skew16", 64, 1024}, {"skew256", 8, 2048}} {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			const pairs = 64
			var xs, ys [pairs][]NodeID
			common := 0
			for p := range xs {
				// Both lists span the same id range, so some ids are
				// shared (reported per op as common).
				xs[p] = ascendingIDs(r, c.short, 8*c.long/c.short)
				ys[p] = ascendingIDs(r, c.long, 8)
				common += len(intersectRef(xs[p], ys[p]))
			}
			dst := make([]NodeID, 0, c.short)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = IntersectSortedInto(dst, xs[i%pairs], ys[i%pairs])
			}
			sinkIDs = dst
			b.ReportMetric(float64(common)/pairs, "common")
		})
	}
}
