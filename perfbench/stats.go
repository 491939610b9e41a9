package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// minTail is how many observations must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 observations, a p50 at
// least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and ok=false when fewer than minTail observations lie above it —
// such a percentile is one or two unlucky samples, not a tail.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // nearest rank, 0-based
	if n-1-rank < minTail {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank], true
}

// median is the middle value (mean of the two middle values for even
// counts); 0 for an empty slice. Unlike percentile it has no tail
// requirement: it summarizes per-round figures, of which a run has few.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histBase is the bucket ratio of hist: quantiles it reports are within
// one per cent of the exact ones.
const histBase = 1.01

// hist is a log-bucketed histogram of durations. It keeps a round's gaps —
// up to hundreds of thousands — in fixed memory, and merges, so the run's
// gap percentiles come from the pooled gaps of its quiet rounds rather than
// from a median of per-round percentiles, which flips between modes when
// rounds differ.
type hist struct {
	counts []int64
	sums   []float64 // per bucket, the sum of its observations
	n      int64
}

func histBucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	return int(math.Log(ns)/math.Log(histBase)) + 1
}

func (h *hist) add(ns float64) {
	b := histBucket(ns)
	h.grow(b + 1)
	h.counts[b]++
	h.sums[b] += ns
	h.n++
}

func (h *hist) grow(buckets int) {
	if buckets > len(h.counts) {
		h.counts = append(h.counts, make([]int64, buckets-len(h.counts))...)
		h.sums = append(h.sums, make([]float64, buckets-len(h.sums))...)
	}
}

// merge adds o's observations to h.
func (h *hist) merge(o *hist) {
	h.grow(len(o.counts))
	for b, c := range o.counts {
		h.counts[b] += c
		h.sums[b] += o.sums[b]
	}
	h.n += o.n
}

// quantile is the histogram's q-quantile — the mean of the observations in
// the bucket holding the nearest rank, which lies in that bucket as the
// exact quantile does — with percentile's rule that at least minTail
// observations lie beyond it.
func (h *hist) quantile(q float64) (float64, bool) {
	if h.n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int64(math.Ceil(q*float64(h.n))) - 1
	if h.n-1-rank < minTail {
		return 0, false
	}
	var cum int64
	for b, c := range h.counts {
		if cum += c; cum > rank {
			return h.sums[b] / float64(c), true
		}
	}
	return 0, false
}

// durs converts durations to float nanoseconds for the percentile helpers.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// tally counts the operations a run attempted and how many failed. Every
// sample requested, every HTTP request the benchmark itself sends and every
// output check is one attempted operation; a refused request (non-2xx), a
// sample that never arrived and a check that did not hold are failures.
// Safe for concurrent use: the serve workload's tenants report from their
// own goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	notes             []string // one line per failure, for the report
}

// op records one attempted operation and whether it succeeded.
func (t *tally) op(ok bool, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, what)
	}
}

// samples records want requested samples of which got arrived.
func (t *tally) samples(want, got int, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += int64(want)
	if got < want {
		t.failed += int64(want - got)
		t.notes = append(t.notes, what)
	}
}

// errorRate is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
