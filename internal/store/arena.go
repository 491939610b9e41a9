package store

import "sync"

// DefaultSlabLen is the default slab capacity (in elements) of an Arena.
// At int32 elements that is a 256 KiB slab — large enough to amortize
// hundreds of typical OSN neighbor lists, small enough that a slab pinned by
// one surviving list is cheap.
const DefaultSlabLen = 1 << 16

// Arena carves many short slices out of few large slabs. It is the allocator
// behind the overlay's rewired neighbor lists and its list-table entries: a
// walk rewires lists and publishes entries by the tens of thousands, and
// without the arena each is its own heap allocation (plus size-class
// rounding waste). With it,
// a slab serves every list until full, then the arena forgets the slab — the
// carved slices keep it alive, and once the last of them is dropped
// (invalidated lists replaced by fresh ones) the GC reclaims the whole slab.
//
// Carved slices are never recycled by the arena, so there is no use-after-free
// hazard: a reader can hold a carved list across any number of later
// allocations and invalidations. The cost is that one live list pins its
// whole slab; keep slabs modest (DefaultSlabLen) where lists are long-lived.
//
// Arena is safe for concurrent use.
type Arena[T any] struct {
	mu      sync.Mutex
	slab    []T
	slabLen int
}

// NewArena returns an arena with the given slab capacity in elements
// (<= 0 selects DefaultSlabLen).
func NewArena[T any](slabLen int) *Arena[T] {
	if slabLen <= 0 {
		slabLen = DefaultSlabLen
	}
	return &Arena[T]{slabLen: slabLen}
}

// Alloc returns a zero-length slice with capacity exactly n, carved from the
// current slab. Requests larger than the slab capacity get a dedicated
// allocation. The returned slice's capacity is clipped, so appending past n
// reallocates instead of bleeding into a neighboring carve.
func (a *Arena[T]) Alloc(n int) []T {
	if n <= 0 {
		return nil
	}
	if n > a.slabLen {
		return make([]T, 0, n)
	}
	a.mu.Lock()
	if cap(a.slab)-len(a.slab) < n {
		a.slab = make([]T, 0, a.slabLen)
	}
	start := len(a.slab)
	a.slab = a.slab[:start+n]
	out := a.slab[start : start : start+n]
	a.mu.Unlock()
	//rewirelint:allow aliasing the arena carve IS the product: caller owns [0,n), capacity clipped against neighbors
	return out
}
