package core

import (
	"slices"
	"sync"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/store"
)

// overlayModel is the reference the overlay is checked against: the base
// graph minus a set of removed base edges plus a set of added non-base
// edges, with the pivots spent on guarded replacements.
type overlayModel struct {
	g       *graph.Graph
	removed map[graph.EdgeKey]bool
	added   map[graph.EdgeKey]bool
	pivots  map[graph.NodeID]bool
}

func newOverlayModel(g *graph.Graph) *overlayModel {
	return &overlayModel{g: g, removed: map[graph.EdgeKey]bool{},
		added: map[graph.EdgeKey]bool{}, pivots: map[graph.NodeID]bool{}}
}

func (m *overlayModel) list(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, w := range m.g.Neighbors(v) {
		if !m.removed[graph.KeyOf(v, w)] {
			out = append(out, w)
		}
	}
	for k := range m.added {
		if a, b := k.Nodes(); a == v {
			out = append(out, b)
		} else if b == v {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// hasDelta reports whether any removed or added edge touches v.
func (m *overlayModel) hasDelta(v graph.NodeID) bool {
	for _, set := range []map[graph.EdgeKey]bool{m.removed, m.added} {
		for k := range set {
			if a, b := k.Nodes(); a == v || b == v {
				return true
			}
		}
	}
	return false
}

func (m *overlayModel) remove(u, v graph.NodeID) {
	k := graph.KeyOf(u, v)
	if m.added[k] {
		delete(m.added, k)
	} else if m.g.HasEdge(u, v) {
		m.removed[k] = true
	}
}

func (m *overlayModel) add(u, v graph.NodeID) {
	if u == v {
		return
	}
	k := graph.KeyOf(u, v)
	delete(m.removed, k)
	if !m.g.HasEdge(u, v) {
		m.added[k] = true
	}
}

func (m *overlayModel) removeGuarded(u, v graph.NodeID, minU, minV int, requireCommon bool) bool {
	if m.added[graph.KeyOf(u, v)] {
		return false
	}
	ul, vl := m.list(u), m.list(v)
	if !slices.Contains(ul, v) || len(ul) <= minU || len(vl) <= minV {
		return false
	}
	if requireCommon && len(graph.IntersectSorted(ul, vl)) == 0 {
		return false
	}
	m.remove(u, v)
	return true
}

func (m *overlayModel) replaceGuarded(u, p, w graph.NodeID, claim bool) bool {
	if claim && m.pivots[p] {
		return false
	}
	ul, pl := m.list(u), m.list(p)
	if !slices.Contains(ul, p) || slices.Contains(ul, w) || u == w ||
		!ReplaceablePivot(len(pl)) || !slices.Contains(pl, w) {
		return false
	}
	m.remove(u, p)
	m.add(u, w)
	if claim {
		m.pivots[p] = true
	}
	return true
}

// flatSource serves g's rows as views of one flat slice whose capacity runs
// to the end of it, so a caller appending to a row it was handed would
// overwrite the next row (graph.Graph clips its views; a Source need not).
type flatSource struct {
	flat []graph.NodeID
	off  []int
}

func newFlatSource(g *graph.Graph) *flatSource {
	s := &flatSource{off: []int{0}}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		s.flat = append(s.flat, g.Neighbors(v)...)
		s.off = append(s.off, len(s.flat))
	}
	return s
}

func (s *flatSource) Neighbors(v graph.NodeID) []graph.NodeID { return s.flat[s.off[v]:s.off[v+1]] }
func (s *flatSource) Degree(v graph.NodeID) int               { return s.off[v+1] - s.off[v] }

// runOverlayOps decodes ops into a sequence of overlay operations over g
// and checks the overlay against the reference model after each one. Every
// op reads its operands from the stream; a short stream reads zeros.
func runOverlayOps(t *testing.T, g *graph.Graph, ops []byte) {
	t.Helper()
	n := g.NumNodes()
	src := newFlatSource(g)
	flat := slices.Clone(src.flat)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	node := func() graph.NodeID { return graph.NodeID(next() % n) }

	ov, m := NewOverlay(src), newOverlayModel(g)
	for step := 0; len(ops) > 0; step++ {
		op := next() % 6
		switch op {
		case 0:
			u, v := node(), node()
			ov.RemoveEdge(u, v)
			m.remove(u, v)
		case 1:
			u, v := node(), node()
			ov.AddEdge(u, v)
			m.add(u, v)
		case 2:
			u, p, w := node(), node(), node()
			ov.ReplaceEdge(u, p, w)
			m.remove(u, p)
			m.add(u, w)
		case 3:
			u, v := node(), node()
			minU, minV, common := next()%4, next()%4, next()%2 == 1
			got := ov.RemoveEdgeGuarded(u, v, minU, minV, common)
			if want := m.removeGuarded(u, v, minU, minV, common); got != want {
				t.Fatalf("step %d: RemoveEdgeGuarded(%d, %d, %d, %d, %v) = %v, model %v",
					step, u, v, minU, minV, common, got, want)
			}
		case 4:
			u, p, w := node(), node(), node()
			claim := next()%2 == 1
			got := ov.ReplaceEdgeGuarded(u, p, w, claim)
			if want := m.replaceGuarded(u, p, w, claim); got != want {
				t.Fatalf("step %d: ReplaceEdgeGuarded(%d, %d, %d, %v) = %v, model %v",
					step, u, p, w, claim, got, want)
			}
		case 5:
			// Checkpoint round trip into a fresh overlay whose lists were
			// read (and published) first, so the restore must clear them.
			removed, added, pivots := ov.Delta()
			fresh := NewOverlay(src)
			for v := graph.NodeID(0); int(v) < n; v += graph.NodeID(1 + next()%3) {
				fresh.Neighbors(v)
			}
			fresh.RestoreDelta(removed, added, pivots)
			ov = fresh
		}
		checkOverlayAgainstModel(t, step, ov, m, src, flat)
	}
}

// checkOverlayAgainstModel compares every node's overlay list with the
// model's; flat is the pristine copy of src's storage.
func checkOverlayAgainstModel(t *testing.T, step int, ov *Overlay, m *overlayModel, src *flatSource, flat []graph.NodeID) {
	t.Helper()
	if ov.RemovedCount() != len(m.removed) || ov.AddedCount() != len(m.added) {
		t.Fatalf("step %d: delta counts %d/%d, model %d/%d", step,
			ov.RemovedCount(), ov.AddedCount(), len(m.removed), len(m.added))
	}
	for v := graph.NodeID(0); int(v) < m.g.NumNodes(); v++ {
		got, want := ov.Neighbors(v), m.list(v)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Neighbors(%d) = %v, model %v", step, v, got, want)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("step %d: Neighbors(%d) = %v is not sorted", step, v, got)
		}
		if cap(got) != len(got) {
			t.Fatalf("step %d: Neighbors(%d) has cap %d > len %d", step, v, cap(got), len(got))
		}
		if !m.hasDelta(v) {
			_ = append(got, -1)
			if !slices.Equal(src.flat, flat) {
				t.Fatalf("step %d: appending to node %d's list changed the base", step, v)
			}
		}
	}
}

// TestOverlayModelRandomOps drives seeded random op sequences over small
// random graphs and checks every node's list after every op.
func TestOverlayModelRandomOps(t *testing.T) {
	r := rng.New(15)
	for trial := 0; trial < 60; trial++ {
		g := gen.GNP(8+r.Intn(6), 0.2+0.3*r.Float64(), r)
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		runOverlayOps(t, g, ops)
	}
}

// FuzzOverlayOps decodes the fuzz input as the op sequence of
// runOverlayOps over a fixed 10-node graph of degrees 2 to 5, seven of them
// degree 3, so Theorem 4 pivots are common and guarded removals meet their
// degree minimums.
func FuzzOverlayOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 3, 4, 2, 0, 1, 1, 3})
	f.Add([]byte{4, 0, 1, 2, 1, 5, 1, 3, 0, 1, 0, 0, 1})
	f.Add([]byte{2, 3, 4, 5, 5, 0, 3, 6, 7, 3, 3, 1})
	g := gen.GNP(10, 0.4, rng.New(3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runOverlayOps(t, g, ops)
	})
}

// mapSource is a walk.Source over explicit adjacency lists, for ids a CSR
// graph cannot hold.
type mapSource map[graph.NodeID][]graph.NodeID

func (s mapSource) Neighbors(v graph.NodeID) []graph.NodeID { return s[v] }
func (s mapSource) Degree(v graph.NodeID) int               { return len(s[v]) }

// TestOverlayIdsOutsideTable checks ids the list table does not cover:
// their lists are materialized on every read, never cached, and track
// mutations like any other node's.
func TestOverlayIdsOutsideTable(t *testing.T) {
	const big = graph.NodeID(store.TableLimit)
	a, b, c := graph.NodeID(1), big, big+5
	ov := NewOverlay(mapSource{a: {b, c}, b: {a, c}, c: {a, b}})
	if got := ov.Neighbors(b); !slices.Equal(got, []graph.NodeID{a, c}) {
		t.Fatalf("Neighbors(%d) = %v", b, got)
	}
	if _, ok := ov.cachedList(b); ok {
		t.Fatalf("uncovered id %d was cached", b)
	}
	ov.Neighbors(a)
	if _, ok := ov.cachedList(a); !ok {
		t.Fatalf("covered id %d was not cached", a)
	}
	ov.RemoveEdge(b, c)
	if got := ov.Neighbors(b); !slices.Equal(got, []graph.NodeID{a}) {
		t.Fatalf("after removal Neighbors(%d) = %v", b, got)
	}
	ov.AddEdge(b, c)
	if !ov.RemoveEdgeGuarded(a, c, 1, 1, true) {
		t.Fatal("guarded removal of a triangle edge refused")
	}
	if got := ov.Neighbors(c); !slices.Equal(got, []graph.NodeID{b}) || cap(got) != len(got) {
		t.Fatalf("after guarded removal Neighbors(%d) = %v (cap %d)", c, got, cap(got))
	}
	if got := ov.Neighbors(a); !slices.Equal(got, []graph.NodeID{b}) {
		t.Fatalf("after guarded removal Neighbors(%d) = %v", a, got)
	}
}

// TestOverlayReadersRaceGuardedMutations runs lock-free list readers
// against guarded removals, replacements and restorations (run with
// -race): every list a reader sees is sorted, duplicate-free and
// capacity-clipped, and the final delta accounting is exact.
func TestOverlayReadersRaceGuardedMutations(t *testing.T) {
	g := socialGraph(t, 300, 1200, 5)
	ov := NewOverlay(g)
	n := g.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 2000; i++ {
				u := graph.NodeID(r.Intn(n))
				lst := ov.Neighbors(u)
				if len(lst) == 0 {
					continue
				}
				v := lst[r.Intn(len(lst))]
				switch r.Intn(3) {
				case 0:
					ov.RemoveEdgeGuarded(u, v, 2, 2, true)
				case 1:
					vl := ov.Neighbors(v)
					if len(vl) > 0 {
						ov.ReplaceEdgeGuarded(u, v, vl[r.Intn(len(vl))], true)
					}
				default:
					ov.AddEdge(u, graph.NodeID(r.Intn(n)))
				}
			}
		}(uint64(w + 1))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 6000; i++ {
				lst := ov.Neighbors(graph.NodeID(r.Intn(n)))
				if cap(lst) != len(lst) {
					t.Errorf("list cap %d > len %d", cap(lst), len(lst))
					return
				}
				for j := 1; j < len(lst); j++ {
					if lst[j-1] >= lst[j] {
						t.Errorf("list %v not strictly ascending", lst)
						return
					}
				}
			}
		}(uint64(w + 100))
	}
	wg.Wait()
	checkOverlayConsistent(t, g, ov)
}
