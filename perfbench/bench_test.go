package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, false, 0},   // nine beyond
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestHistQuantileTracksPercentile(t *testing.T) {
	var h hist
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(100 + (i*7919)%100000) // spread over three decades
		h.add(xs[i])
	}
	for _, q := range []float64{0.5, 0.99} {
		want, _ := percentile(xs, q)
		got, ok := h.quantile(q)
		if !ok || math.Abs(got-want)/want > 0.01 {
			t.Errorf("hist quantile %v = %v, %v; exact %v", q, got, ok, want)
		}
	}
	var small hist
	for i := 0; i < 999; i++ {
		small.add(float64(i + 1))
	}
	if _, ok := small.quantile(0.99); ok {
		t.Error("hist reported a p99 with nine observations beyond it")
	}
}

func TestSelfTimeSubtractsCoveredTime(t *testing.T) {
	cases := []struct {
		start, end int64
		kids       [][2]int64
		want       int64
	}{
		{0, 100, nil, 100},
		{0, 100, [][2]int64{{10, 30}}, 80},
		// Overlapping children count once; a child running past the
		// parent's end counts only up to it.
		{0, 100, [][2]int64{{20, 40}, {10, 30}, {90, 120}}, 60},
		{0, 100, [][2]int64{{0, 100}, {50, 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.kids); got != c.want {
			t.Errorf("selfTime(%d, %d, %v) = %d, want %d", c.start, c.end, c.kids, got, c.want)
		}
	}
}

// TestAnalyzeSelfTimeAndMisses builds a lane by hand: a step containing a
// cache hit and a miss whose backend fetch and journal append are its
// children.
func TestAnalyzeSelfTimeAndMisses(t *testing.T) {
	tr := newTracer(1)
	l := tr.lanes[0]
	l.spans = []span{
		{start: 0, end: 1000, parent: -1, kind: kStep},
		{start: 100, end: 150, parent: 0, kind: kCall},  // hit
		{start: 200, end: 900, parent: 0, kind: kCall},  // miss
		{start: 250, end: 650, parent: 2, kind: kFetch}, // its round trip
		{start: 700, end: 800, parent: 2, kind: kJournal},
	}
	a := tr.analyze()
	if got := a.kinds[kStep].self; got != 1000-50-700 {
		t.Errorf("step self = %d, want %d", got, 1000-50-700)
	}
	if len(a.hits) != 1 || a.hits[0] != 50 || len(a.misses) != 1 || a.misses[0] != 700 {
		t.Errorf("hits %v misses %v, want [50] and [700]", a.hits, a.misses)
	}
	if a.missSelf != 700-400-100 {
		t.Errorf("miss self = %d, want %d", a.missSelf, 700-400-100)
	}
}

func TestLeafCallsEstimateFromSamples(t *testing.T) {
	tr := newTracer(1)
	l := tr.lanes[0]
	timed := 0
	for i := 0; i < 4*leafEvery; i++ {
		if l.leafTimed(kPeek) {
			timed++
			l.leaves[kPeek][1]++
			l.leaves[kPeek][2] += 30
		}
	}
	if timed != 4 {
		t.Fatalf("timed %d of %d leaf calls, want 4", timed, 4*leafEvery)
	}
	a := tr.analyze()
	if got := a.kinds[kPeek]; got.count != 4*leafEvery || got.total != 4*leafEvery*30 {
		t.Errorf("peek count %d total %d, want %d and %d", got.count, got.total, 4*leafEvery, 4*leafEvery*30)
	}
}

func TestErrorRateCountsRefusedAndFailedAsAttempted(t *testing.T) {
	var tl tally
	tl.op(true, "submit accepted")
	tl.op(false, "submit refused with 429")
	tl.op(false, "output check failed")
	tl.samples(10, 7, "stream ended early")
	if tl.attempted != 13 || tl.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 13 and 5", tl.attempted, tl.failed)
	}
	if got, want := tl.errorRate(), 5.0/13; math.Abs(got-want) > 1e-12 {
		t.Errorf("error rate %v, want %v", got, want)
	}
	if len(tl.notes) != 3 {
		t.Errorf("notes %q, want one per failure report", tl.notes)
	}
}

func TestEndToEndUsesQuietRounds(t *testing.T) {
	r := &result{}
	// Three rounds of 1000 samples: two quiet (1 and 2 ms gaps), one the
	// host slowed (10 ms gaps, a tenth of the rate).
	for i, gap := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond} {
		gaps := make([]time.Duration, 999)
		for j := range gaps {
			gaps[j] = gap
		}
		r.addRound(round{wall: 1000 * gap, samples: 1000, queries: int64(100 * (i + 1))}, gaps)
	}
	e := r.endToEnd()
	if got, want := e["samples_per_s"].Value, 750.0; got != want { // median of 1000 and 500
		t.Errorf("samples_per_s %v, want %v", got, want)
	}
	if got := e["sample_gap_p99_us"].Value; math.Abs(got-2000)/2000 > 0.01 {
		t.Errorf("sample_gap_p99_us %v, want 2000 (the slowed round's gaps left out)", got)
	}
	if got, want := e["queries_per_sample"].Value, 0.2; got != want { // over all three rounds
		t.Errorf("queries_per_sample %v, want %v", got, want)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json, the metrics the
// program prints and the layer map in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	type m struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)

	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	e2e := (&result{}).endToEnd()
	for _, x := range bench.EndToEnd {
		if got, ok := e2e[x.Name]; !ok || got.Unit != x.Unit {
			t.Errorf("end-to-end metric %s (%s): program has %+v", x.Name, x.Unit, got)
		}
	}
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(e2e))
	}
	for _, x := range bench.PerLayer {
		if unit, ok := layerUnits[x.Name]; !ok || unit != x.Unit {
			t.Errorf("per-layer metric %s (%s): program unit %q", x.Name, x.Unit, unit)
		}
	}
	if len(bench.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bench.PerLayer), len(layerUnits))
	}

	var layers struct {
		Metrics map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "layers.json", &layers)
	for name := range layerUnits {
		if _, ok := layers.Metrics[name]; !ok {
			t.Errorf("layers.json has no entry for %s", name)
		}
	}
	if len(layers.Metrics) != len(layerUnits) {
		t.Errorf("layers.json maps %d metrics, the program reports %d", len(layers.Metrics), len(layerUnits))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
