// Package core implements the paper's contribution: the MTO-Sampler
// ("Modified TOpology Sampler"), which speeds up third-party random walks
// over an online social network by rewiring a *virtual overlay* of the graph
// on-the-fly, using only the local neighborhoods the walk has already paid
// queries for.
//
// Three results drive it:
//
//   - Theorem 3 (edge removal): if ⌈|N(u)∩N(v)|/2⌉ + 1 > max(ku, kv)/2 then
//     (u,v) is provably non-cross-cutting and can be deleted from the
//     overlay without decreasing conductance.
//   - Theorem 5 (extension): degree knowledge of common neighbors cached
//     from earlier queries strengthens the test — each known common
//     neighbor w with 2 ≤ kw ≤ 3 contributes (4-kw)/2 to the left side.
//   - Theorem 4 (edge replacement): around a degree-3 pivot p, an incident
//     edge (x, p) may be replaced by (x, y) for the other neighbor y of p
//     without ever decreasing conductance.
//
// The Sampler (Algorithm 1) applies these while walking; BuildOverlay
// applies them offline to a known graph for the paper's Fig 10 style
// spectral measurements.
//
// The removal criterion runs on every judged edge, so its cost is kept low,
// cheapest check first. An edge with 2·min(ku, kv)+3 <= max(ku, kv) cannot
// pass (|common| <= min(ku, kv)), so it is rejected before any merge. The
// overlay connectivity guard asks graph.HasCommonSorted for existence, which
// stops at the first shared neighbor. The common-neighbor list comes from a
// branch-free merge, O(ku+kv). RemovableTheorem5 stops reading cached
// degrees as soon as the unread members cannot change its verdict.
package core

import "rewire/internal/graph"

// RemovableTheorem3 evaluates the paper's Theorem 3 removal criterion given
// the common-neighbor count of (u, v) and the endpoint degrees:
//
//	⌈common/2⌉ + 1 > max(ku, kv)/2.
//
// All arithmetic stays in integers (the comparison is doubled) so there is
// no floating-point edge case. The caller must pass degrees and common
// counts measured on the *current overlay* — evaluating against the original
// graph while the overlay has diverged voids the theorem's guarantee.
func RemovableTheorem3(common, ku, kv int) bool {
	maxDeg := ku
	if kv > maxDeg {
		maxDeg = kv
	}
	// 2*(⌈n/2⌉ + 1) > maxDeg  with ⌈n/2⌉ = (n+1)/2 in integer division.
	return 2*((common+1)/2+1) > maxDeg
}

// DegreeCache supplies degree knowledge already present in the sampler's
// local store — the "historical information [obtained] without paying any
// query cost" of the paper's §III-D. *osn.Client implements it.
type DegreeCache interface {
	CachedDegree(v graph.NodeID) (int, bool)
}

// RemovableTheorem5 evaluates the extended criterion of Theorem 5. common
// lists the common neighbors of (u, v) on the current overlay; cache
// provides free degree knowledge. With N* = {w ∈ common : kw cached,
// 2 ≤ kw ≤ 3}, the edge is removable when
//
//	⌈(|common| - |N*|)/2⌉ + 1 + Σ_{w∈N*} (4-kw)/2 > max(ku, kv)/2.
//
// With an empty N* this degenerates to Theorem 3 exactly, so callers can use
// it unconditionally. A nil cache is treated as empty.
//
// The cache is read one common neighbor at a time, and the loop stops as
// soon as the unread members can no longer change the verdict: each of them
// adds 1 or 2 to the doubled bonus if it joins N*, or 1 to rest otherwise,
// and 2⌈x/2⌉ lies in [x, x+1].
func RemovableTheorem5(common []graph.NodeID, ku, kv int, cache DegreeCache) bool {
	maxDeg := max(ku, kv)
	nStar := 0
	bonus := 0 // Σ (4 - kw), kept doubled like the rest of the comparison
	if cache != nil {
		for i, w := range common {
			// Before reading common[i], the final doubled left side lies in
			// [seen + unread + 2 + bonus, seen + 3 + bonus + 2·unread], where
			// seen counts the members read so far that are outside N*.
			seen, unread := i-nStar, len(common)-i
			if seen+unread+2+bonus > maxDeg {
				return true
			}
			if seen+3+bonus+2*unread <= maxDeg {
				return false
			}
			kw, ok := cache.CachedDegree(w)
			if ok && kw >= 2 && kw <= 3 {
				nStar++
				bonus += 4 - kw
			}
		}
	}
	rest := len(common) - nStar
	// 2*(⌈rest/2⌉ + 1) + bonus > maxDeg.
	return 2*((rest+1)/2+1)+bonus > maxDeg
}

// prunable reports whether no edge with endpoint degrees ku and kv can pass
// Removable, before its common neighbors are even intersected: |common| is
// at most min(ku, kv), and Removable rejects whenever 2|common|+3 <=
// max(ku, kv).
func prunable(ku, kv int) bool { return 2*min(ku, kv)+3 <= max(ku, kv) }

// Removable combines both certificates: an edge is removable when Theorem 3
// fires on the counts alone, or Theorem 5 fires with cached degree
// knowledge. The two are combined with OR because the ⌈·/2⌉ parity makes
// neither test pointwise stronger: e.g. with 3 common neighbors, one cached
// at degree 3, and max degree 5, Theorem 3 fires (6 > 5) while the Theorem 5
// left side is only 5.
//
// Neither left side can exceed 2|common| + 3 (each N* member adds at most 2,
// every other common neighbor at most 1 after the ceiling, plus the +1
// doubled), so when that bound does not beat max(ku, kv) the edge is
// rejected without a single cache read.
func Removable(common []graph.NodeID, ku, kv int, cache DegreeCache) bool {
	if 2*len(common)+3 <= max(ku, kv) {
		return false
	}
	if RemovableTheorem3(len(common), ku, kv) {
		return true
	}
	if cache == nil {
		return false
	}
	return RemovableTheorem5(common, ku, kv, cache)
}

// ReplaceablePivot reports whether Theorem 4 applies at pivot p given its
// overlay degree: replacement around p is conductance-safe exactly when
// deg(p) == 3 (Corollary 2 shows 3 is the *only* safe degree).
func ReplaceablePivot(degP int) bool { return degP == 3 }
