package graph

import "slices"

// IntersectSorted intersects two ascending NodeID slices into a fresh
// slice, nil when they share nothing. It allocates only when there is a
// shared id to return.
func IntersectSorted(a, b []NodeID) []NodeID {
	if !HasCommonSorted(a, b) {
		return nil
	}
	return IntersectSortedInto(nil, a, b)
}

// IntersectSortedInto is IntersectSorted appending into dst[:0], so a caller
// on a hot path can reuse one scratch buffer instead of allocating per call
// (the walk inner loop's zero-allocation steady state depends on this). dst
// is grown only when its capacity is below the shorter list's length.
func IntersectSortedInto(dst, a, b []NodeID) []NodeID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst[:0]
	}
	// Branch-free merge: every step stores the candidate and advances by
	// comparison results, so no data-dependent branch can mispredict. A
	// stored candidate is kept only when n advances past it.
	out := slices.Grow(dst[:0], len(a))[:len(a)]
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		out[n] = x
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(x >= y)
	}
	return out[:n]
}

// CountIntersectSorted counts the intersection size of two ascending slices.
func CountIntersectSorted(a, b []NodeID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(x >= y)
	}
	return n
}

// HasCommonSorted reports whether two ascending slices share an element,
// stopping at the first one — the overlay connectivity guard needs
// existence, not the count.
func HasCommonSorted(a, b []NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			return true // taken at most once per call
		}
		i += b2i(x < y)
		j += b2i(x > y)
	}
	return false
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
