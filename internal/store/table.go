package store

import (
	"sync"
	"sync/atomic"
)

// Table geometry. Pages are small on purpose: a cold client touches a new
// page on nearly every early miss, and each touch zeroes the page, so a
// 256-slot (2 KiB) page keeps the first sample cheap where a 4096-slot one
// measurably delays it.
const (
	tablePageBits = 8
	tablePageSize = 1 << tablePageBits

	// TableLimit bounds the keys a Table holds: keys in [0, TableLimit) are
	// published, anything else (negative or larger) is refused, so the page
	// directory never exceeds TableLimit/256 entries (512 KiB). Callers keep
	// refused keys in a Map.
	TableLimit = 1 << 24
)

type tablePage[V any] [tablePageSize]atomic.Pointer[V]

// tableDir is one immutable generation of the page directory: its length
// never changes, only its slots are filled (atomically, once each).
type tableDir[V any] struct {
	pages []atomic.Pointer[tablePage[V]]
}

// Table is a table indexed by a dense non-negative integer key whose reads
// take no lock and no hashing — a directory load, a page load and a slot
// load, all atomic. Writers serialize on one mutex only to install a page or
// grow the directory, which is copied on write; filling or clearing a slot
// of an existing page is a single atomic store.
//
// Two layers use it. The osn client publishes each demanded cache entry once
// and never replaces or clears it, so the Theorem 5 criterion's free degree
// lookups are lock-free. The core overlay publishes materialized neighbor
// lists and clears a node's slot when a rewiring invalidates its list; a
// reader that loaded the old pointer keeps a valid (stale) value, so
// published values must be immutable.
//
// Memory is about 8 bytes per slot of every touched 256-key page plus 8
// bytes per directory entry, so the table is compact exactly when the keys
// it holds are dense, as node ids in [0, NumUsers) are.
//
// The zero value is an empty table ready for use. Table is safe for
// concurrent use. It does not order writes to one key: a second Publish of
// a key replaces its value and Clear removes it, so callers serialize the
// writes of one key themselves (the osn client publishes under the key's
// shard lock; the overlay clears under its write lock and publishes under
// its read lock, where concurrent publishes of one key carry equal lists).
type Table[K Key, V any] struct {
	dir atomic.Pointer[tableDir[V]]
	mu  sync.Mutex
}

// Load returns the value published under k, or nil.
func (t *Table[K, V]) Load(k K) *V {
	d := t.dir.Load()
	if d == nil {
		return nil
	}
	i := uint64(k) >> tablePageBits
	if i >= uint64(len(d.pages)) {
		return nil
	}
	p := d.pages[i].Load()
	if p == nil {
		return nil
	}
	return p[uint64(k)&(tablePageSize-1)].Load()
}

// Covers reports whether k is in the table's key range [0, TableLimit):
// for such keys, a nil Load is authoritative.
func (t *Table[K, V]) Covers(k K) bool { return uint64(k) < TableLimit }

// Publish stores v under k and reports whether it could: keys outside the
// table's range (see Covers) are refused and nothing is stored.
func (t *Table[K, V]) Publish(k K, v *V) bool {
	if !t.Covers(k) {
		return false
	}
	t.page(uint64(k) >> tablePageBits)[uint64(k)&(tablePageSize-1)].Store(v)
	return true
}

// Clear removes k's value, so a later Load returns nil. It never installs a
// page: clearing a key whose page was never touched, or a key outside the
// table's range, is a no-op. It repeats Load's lookup rather than sharing
// a helper with it, which would push Load past the compiler's inlining
// budget.
func (t *Table[K, V]) Clear(k K) {
	d := t.dir.Load()
	if d == nil {
		return
	}
	i := uint64(k) >> tablePageBits
	if i >= uint64(len(d.pages)) {
		return
	}
	if p := d.pages[i].Load(); p != nil {
		p[uint64(k)&(tablePageSize-1)].Store(nil)
	}
}

// page returns page i, installing it (and growing the directory) on first
// touch.
func (t *Table[K, V]) page(i uint64) *tablePage[V] {
	if d := t.dir.Load(); d != nil && i < uint64(len(d.pages)) {
		if p := d.pages[i].Load(); p != nil {
			return p
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dir.Load()
	if d == nil || i >= uint64(len(d.pages)) {
		// Grow geometrically, so filling a dense key range copies the
		// directory O(log n) times. Readers holding the old generation keep
		// seeing its pages; pages installed below go into the new one only,
		// and every page of the old one is carried over.
		n := 2 * i
		if n < 16 {
			n = 16
		}
		if limit := uint64(TableLimit >> tablePageBits); n > limit {
			n = limit
		}
		grown := &tableDir[V]{pages: make([]atomic.Pointer[tablePage[V]], n)}
		if d != nil {
			for j := range d.pages {
				grown.pages[j].Store(d.pages[j].Load())
			}
		}
		t.dir.Store(grown)
		d = grown
	}
	p := d.pages[i].Load()
	if p == nil {
		p = new(tablePage[V])
		d.pages[i].Store(p)
	}
	return p
}
