package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// round is one measured repetition of a workload's sampling: set-up (when
// the round measured one), the closed-loop consumer's view, and the bill.
type round struct {
	setup   time.Duration
	first   time.Duration
	wall    time.Duration
	samples int
	gapP50  float64 // ns
	gapP99  float64 // ns
	gaps    int
	gapHist hist // the round's gaps, ns
	queries int64
	hash    uint64
}

// rate is the round's samples per second of sampling wall clock.
func (rd round) rate() float64 { return float64(rd.samples) / rd.wall.Seconds() }

// result accumulates one run: every round, the operation tally, and — for
// traced runs — the per-layer metrics.
type result struct {
	workload string
	procs    int // GOMAXPROCS the workload ran with
	rounds   []round
	setups   []float64 // seconds; extra set-up repetitions included
	firsts   []float64 // ms; extra first-sample probes included
	heapMB   float64
	t        tally
	layers   map[string]metric
	lines    []string // human-readable report lines
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// roundOf fills a round's consumer-side figures from c.
func roundOf(c *consumer) round {
	return round{first: c.first, wall: c.wall(), samples: c.n, hash: c.hash()}
}

// addRound records a finished round and the gaps its consumer saw. The gap
// percentiles need their tail (see percentile); a round too short to have
// one fails the run's output check instead of reporting a guess.
func (r *result) addRound(rd round, gaps []time.Duration) {
	g := durs(gaps)
	for _, x := range g {
		rd.gapHist.add(x)
	}
	p50, ok50 := percentile(g, 0.50)
	p99, ok99 := percentile(g, 0.99)
	r.t.op(ok50 && ok99, fmt.Sprintf("round %d: %d gaps are too few for a p99", len(r.rounds), len(g)))
	rd.gapP50, rd.gapP99, rd.gaps = p50, p99, len(g)
	r.rounds = append(r.rounds, rd)
	if rd.setup > 0 {
		r.setups = append(r.setups, rd.setup.Seconds())
	}
	if rd.first > 0 {
		r.firsts = append(r.firsts, float64(rd.first)/1e6)
	}
}

// quiet returns the faster half of the run's rounds (at least one), by
// sampling rate. Every round repeats the same work — the output checks hold
// each to round 0's trajectory and bill — so rounds differ only by what the
// shared host took from them, and that only ever adds time: the faster half
// is the program's cost with the least of the host's load in it.
func (r *result) quiet() []round {
	rs := slices.Clone(r.rounds)
	slices.SortFunc(rs, func(a, b round) int { return cmp.Compare(b.rate(), a.rate()) })
	return rs[:(len(rs)+1)/2]
}

// endToEnd computes the end-to-end metrics: the median rate of the quiet
// rounds and gap percentiles over their pooled gaps; medians of every
// set-up and first sample (probes among them start from different seeds,
// so they do not repeat one piece of work); the bill, the same in every
// round, as a median over all of them.
func (r *result) endToEnd() map[string]metric {
	var rate, qps []float64
	var gaps hist
	for _, rd := range r.quiet() {
		rate = append(rate, rd.rate())
		gaps.merge(&rd.gapHist)
	}
	for _, rd := range r.rounds {
		qps = append(qps, float64(rd.queries)/float64(rd.samples))
	}
	p50, _ := gaps.quantile(0.50)
	p99, _ := gaps.quantile(0.99)
	return map[string]metric{
		"samples_per_s":      {median(rate), "1/s"},
		"sample_gap_p50_us":  {p50 / 1e3, "us"},
		"sample_gap_p99_us":  {p99 / 1e3, "us"},
		"queries_per_sample": {median(qps), "query/sample"},
		"first_sample_ms":    {median(r.firsts), "ms"},
		"setup_s":            {median(r.setups), "s"},
		"heap_mb":            {r.heapMB, "MB"},
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// print writes the human-readable report and, last, the one-line JSON
// result the harness reads.
func (r *result) print(w io.Writer, traced bool) error {
	e2e := r.endToEnd()
	fmt.Fprintf(w, "workload %s: %d rounds, GOMAXPROCS=%d\n", r.workload, len(r.rounds), r.procs)
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	quiet := r.quiet()
	gaps := 0
	for _, rd := range quiet {
		gaps += rd.gaps
	}
	fmt.Fprint(w, "  by round, samples/s (gap p99 us):")
	for _, rd := range r.rounds {
		fmt.Fprintf(w, " %.0f (%.0f)", rd.rate(), rd.gapP99/1e3)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  set-up ms quartiles %s; first sample ms quartiles %s\n", quartiles(r.setups, 1e3), quartiles(r.firsts, 1))
	fmt.Fprintf(w, "  end to end (the faster %d of %d rounds: median rate, gap percentiles over their %d gaps; medians of %d set-ups and %d first samples):\n",
		len(quiet), len(r.rounds), gaps, len(r.setups), len(r.firsts))
	printMetrics(w, e2e)
	fmt.Fprintf(w, "    %-34s %.6g (%d failed of %d attempted)\n", "error_rate", r.t.errorRate(), r.t.failed, r.t.attempted)
	for _, n := range r.t.notes {
		fmt.Fprintln(w, "  FAILED: "+n)
	}
	metrics := e2e
	if traced {
		fmt.Fprintln(w, "  per layer:")
		printMetrics(w, r.layers)
		metrics = r.layers
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.t.failed == 0, r.t.attempted, r.t.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quartiles formats the quartiles of xs, scaled by k.
func quartiles(xs []float64, k float64) string {
	if len(xs) < 4 {
		return "(too few)"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return fmt.Sprintf("%.4g / %.4g / %.4g", k*s[n/4], k*s[n/2], k*s[3*n/4])
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "    %-34s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
