package main

import (
	"math"
	"time"

	"rewire"
)

// consumer is the closed-loop sample reader: it takes the next sample as
// soon as it has handled the last one, and records what the end-to-end
// metrics need — time to the first sample, the gaps between samples, and a
// per-walker trajectory hash.
type consumer struct {
	start time.Time // the sampling request (Stream call or job submit)
	last  time.Time
	first time.Duration
	n     int
	gaps  []time.Duration
	// hashes[w] folds walker w's (node, weight) sequence. Walkers of a
	// fleet interleave nondeterministically, but each one's own sequence is
	// fixed by the seed, so the folded per-walker hashes are too.
	hashes []uint64

	// deg, when set, is the graph's true degree table: the consumer then
	// accumulates the importance-weighted average-degree estimate
	// Σ deg(v)/w(v) / Σ 1/w(v) over the samples.
	deg        []int32
	num, denom float64
}

const fnvPrime = 1099511628211

func newConsumer(walkers, expect int) *consumer {
	c := &consumer{gaps: make([]time.Duration, 0, expect), hashes: make([]uint64, walkers)}
	for i := range c.hashes {
		c.hashes[i] = 14695981039346656037
	}
	return c
}

// begin marks the sampling request.
func (c *consumer) begin() { c.start = time.Now() }

func (c *consumer) take(s rewire.Sample) {
	now := time.Now()
	if c.n == 0 {
		c.first = now.Sub(c.start)
	} else {
		c.gaps = append(c.gaps, now.Sub(c.last))
	}
	c.last = now
	c.n++
	if s.Walker >= 0 && s.Walker < len(c.hashes) {
		h := c.hashes[s.Walker]
		h = (h ^ uint64(s.Node)) * fnvPrime
		h = (h ^ math.Float64bits(s.Weight)) * fnvPrime
		c.hashes[s.Walker] = h
	}
	if c.deg != nil && s.Weight > 0 && int(s.Node) < len(c.deg) {
		c.num += float64(c.deg[s.Node]) / s.Weight
		c.denom += 1 / s.Weight
	}
}

// wall is the sampling wall clock: request to last sample.
func (c *consumer) wall() time.Duration { return c.last.Sub(c.start) }

// hash folds the per-walker hashes in walker order.
func (c *consumer) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, x := range c.hashes {
		h = (h ^ x) * fnvPrime
	}
	return h
}

// estimate is the importance-weighted average-degree estimate.
func (c *consumer) estimate() float64 {
	if c.denom == 0 {
		return 0
	}
	return c.num / c.denom
}
