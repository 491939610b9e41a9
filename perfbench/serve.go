package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/gen"
	"rewire/internal/httpsrc"
	"rewire/internal/serve"
)

const (
	// serveSamples is each tenant's job budget per round.
	serveSamples = 10_000
	serveFleet   = 8
	// serveProbes fresh daemons after every round each take one probe job
	// of one sample per walker: their set-up and time to first sample join
	// the rounds' figures, so those medians rest on more than a handful of
	// daemon starts, spread over the run.
	serveProbes = 8
	// providerLatency is the provider's fixed per-request latency: the
	// round trip this workload's wall clock waits on.
	providerLatency = 500 * time.Microsecond
	// batchWait is the daemon's coalescing window (rewire-serve -batchwait).
	batchWait = time.Millisecond
	// traceScheme is the driver scheme the traced daemon opens its backend
	// through, so the backend seams sit inside the daemon's stack.
	traceScheme = "perfbench-trace"
)

// serveTrace is the traced round's instrumentation. The daemon opens
// backends through the driver registry, which is process-global, so the
// registered driver finds the active round here.
type serveTrace struct {
	tr       *tracer
	provider string // the provider's http:// URL
	book     waitBook

	// batchers holds every coalescing layer the driver built. Two tenants'
	// first submits can race to open the backend; the daemon keeps one
	// stack and closes the other, whose counters stay zero.
	mu       sync.Mutex
	batchers []rewire.Backend
}

// withdrawn sums the batchers' withdrawn ids and forgets the batchers.
func (st *serveTrace) withdrawn() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, b := range st.batchers {
		if bs, ok := rewire.BackendAs[rewire.BatchStatser](b); ok {
			n += int(bs.BatchStats().Withdrawn)
		}
	}
	st.batchers = nil
	return n
}

var activeTrace atomic.Pointer[serveTrace]

func init() {
	rewire.Register(traceScheme, rewire.DriverFunc(openTraced))
}

// openTraced opens the provider's http:// backend and builds the
// coalescing layer the untraced daemon adds with -batchwait, with a seam
// below it (each dispatched round trip) and above it (each cache miss the
// daemon's provider hands down).
func openTraced(ctx context.Context, _ *url.URL) (rewire.Backend, error) {
	st := activeTrace.Load()
	if st == nil {
		return nil, fmt.Errorf("%s: no traced round is active", traceScheme)
	}
	inner, err := rewire.OpenBackend(ctx, st.provider)
	if err != nil {
		return nil, err
	}
	below := (&backendSeam{inner: inner, tr: st.tr, kind: kFetch, book: &st.book}).wrap()
	batched := rewire.WithBatching(below, rewire.BatchingOptions{MaxWait: batchWait})
	st.mu.Lock()
	st.batchers = append(st.batchers, batched)
	st.mu.Unlock()
	return (&backendSeam{inner: batched, tr: st.tr, kind: kDemand, book: &st.book}).wrap(), nil
}

// waitBook pairs each id's demand (above the batcher) with its dispatch
// (below it): the difference is the time the id waited in the window.
type waitBook struct {
	mu     sync.Mutex
	demand map[rewire.NodeID]int64
	waits  []float64
}

func (b *waitBook) record(kind uint8, ids []rewire.NodeID, now int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.demand == nil {
		b.demand = make(map[rewire.NodeID]int64)
	}
	for _, v := range ids {
		if kind == kDemand {
			b.demand[v] = now
		} else if t, ok := b.demand[v]; ok {
			b.waits = append(b.waits, float64(now-t))
			delete(b.demand, v)
		}
	}
}

// provider is the remote network the daemon crawls: the reference
// neighbor-list server over the full-scale Epinions stand-in, with a fixed
// per-request latency, on loopback.
type provider struct {
	srv  *httptest.Server
	seam *handlerSeam // nil for the untraced provider
}

func newProvider(h http.Handler, tr *tracer) *provider {
	p := &provider{}
	if tr != nil {
		p.seam = &handlerSeam{h: h, tr: tr, latency: providerLatency}
		h = p.seam
	}
	p.srv = httptest.NewServer(h)
	return p
}

// tenantRun is one tenant's job as its client saw it.
type tenantRun struct {
	name        string
	c           *consumer
	submit      time.Duration
	streamBytes int64
	state       string
	err         error
}

// serveRoundOut is one serve-http-fleet round.
type serveRoundOut struct {
	setup   time.Duration
	wall    time.Duration
	tenants []*tenantRun
	unique  int64
	mem     memDelta
	heapMB  float64
}

// benchClient is the load generator's HTTP client: two tenants, so at most
// two connections.
func benchClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// serveRound starts a fresh daemon (cold cache), has each tenant submit a
// fleet-8 SRW job of the given size over the shared backend and read its
// JSONL stream to the end, then reads and checks the bills. backendURL is
// what the jobs name; daemonBatch is the daemon's -batchwait.
func serveRound(ctx context.Context, seed uint64, backendURL string, daemonBatch time.Duration, tenantNames []string, samples int, wantHeap bool, t *tally) (*serveRoundOut, error) {
	out := &serveRoundOut{}
	client := benchClient()
	defer client.CloseIdleConnections()

	t0 := time.Now()
	srv := serve.New(ctx, serve.Options{BatchWait: daemonBatch})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	resp, err := client.Get(hs.URL + "/healthz")
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.setup = time.Since(t0)
	t.op(resp.StatusCode/100 == 2, fmt.Sprintf("GET /healthz: %s", resp.Status))

	before := readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for i, name := range tenantNames {
		tr := &tenantRun{name: name, c: newConsumer(serveFleet, samples)}
		out.tenants = append(out.tenants, tr)
		spec := serve.JobSpec{
			Backend:     backendURL,
			Tenant:      name,
			Samples:     samples,
			Algorithm:   "SRW",
			Fleet:       serveFleet,
			Seed:        seed*2 + uint64(i) + 1,
			Partitioned: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.err = runJob(client, hs.URL, spec, tr, t)
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, tr := range out.tenants {
		if tr.c.n > 0 {
			out.wall = max(out.wall, tr.c.last.Sub(start))
		}
	}
	out.mem = diffMem(before, readMem())
	for _, tr := range out.tenants {
		if tr.err != nil {
			return nil, fmt.Errorf("%s: %w", tr.name, tr.err)
		}
	}

	var tenants struct {
		Tenants map[string]map[string]rewire.TenantBill `json:"tenants"`
	}
	var backends struct {
		Backends []serve.BackendInfo `json:"backends"`
	}
	if err := getJSON(client, hs.URL+"/v1/tenants", &tenants, t); err != nil {
		return nil, err
	}
	if err := getJSON(client, hs.URL+"/v1/backends", &backends, t); err != nil {
		return nil, err
	}
	var billed int64
	for _, perURL := range tenants.Tenants {
		billed += perURL[backendURL].Unique
	}
	for _, b := range backends.Backends {
		if b.URL == backendURL {
			out.unique = b.UniqueQueries
		}
	}
	t.op(out.unique > 0 && billed == out.unique, fmt.Sprintf("tenant bills sum to %d, backend unique queries %d", billed, out.unique))
	for _, tr := range out.tenants {
		t.samples(samples, tr.c.n, fmt.Sprintf("%s stream delivered %d of %d samples", tr.name, tr.c.n, samples))
		t.op(tr.c.n == samples && tr.state == string(serve.StateDone), fmt.Sprintf("%s stream ended %q after %d samples (want done after exactly %d)", tr.name, tr.state, tr.c.n, samples))
	}
	if wantHeap {
		out.heapMB = liveHeapMB()
	}
	return out, nil
}

// runJob submits spec and reads its stream to the end, as a closed loop:
// each line is decoded and handed to the consumer before the next is read.
func runJob(client *http.Client, base string, spec serve.JobSpec, tr *tenantRun, t *tally) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	tr.c.begin()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tr.submit = time.Since(tr.c.start)
	t.op(resp.StatusCode/100 == 2 && err == nil, fmt.Sprintf("POST /v1/jobs: %s", resp.Status))
	if resp.StatusCode/100 != 2 || err != nil {
		return fmt.Errorf("submit: %s %v", resp.Status, err)
	}

	resp, err = client.Get(base + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	t.op(resp.StatusCode/100 == 2, fmt.Sprintf("GET stream: %s", resp.Status))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		tr.streamBytes += int64(len(line)) + 1
		var ev struct {
			Sample *rewire.Sample `json:"sample"`
			State  string         `json:"state"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("decoding stream line: %w", err)
		}
		if ev.Sample != nil {
			tr.c.take(*ev.Sample)
		}
		if ev.State != "" {
			tr.state = ev.State
		}
	}
	return sc.Err()
}

func getJSON(client *http.Client, u string, v any, t *tally) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	t.op(resp.StatusCode/100 == 2, fmt.Sprintf("GET %s: %s", u, resp.Status))
	return json.NewDecoder(resp.Body).Decode(v)
}

var tenantNames = []string{"tenant-a", "tenant-b"}

// runServeFleet is the serve-http-fleet workload.
func runServeFleet(ctx context.Context, _ string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{workload: "serve-http-fleet", procs: runtime.GOMAXPROCS(0), layers: map[string]metric{}}
	g := gen.EpinionsLike(dataset.Seed)
	handler := httpsrc.Handler(g, httpsrc.ServerOptions{Latency: providerLatency})
	plain := newProvider(handler, nil)
	defer plain.srv.Close()
	res.logf("input: Epinions stand-in, %d nodes, %d edges, behind an in-process provider with %v per request; daemon -batchwait %v; 2 tenants x SRW fleet %d partitioned x %d samples per round; 2 client connections",
		g.NumNodes(), g.NumEdges(), providerLatency, batchWait, serveFleet, serveSamples)

	deadline := time.Now().Add(seconds)
	var (
		overheads              []float64
		submits                []float64
		streamBytes, delivered int64
		failedJobs             int
		lastMem                memDelta
		prevDur                time.Duration
		lastSamples            int
		// The traced rounds pool into one trace: a round has too few
		// round trips for a p99 of its own.
		st                       = &serveTrace{tr: newTracer(0)}
		tp                       *provider
		tracedWall               time.Duration
		tracedSamples, withdrawn int
	)
	if traced {
		tp = newProvider(handler, st.tr)
		defer tp.srv.Close()
		st.provider = tp.srv.URL
	}
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// The live heap is read while the daemon is still up, so the round
		// expected to be the last measures it.
		roundStart := time.Now()
		wantHeap := n > 0 && time.Until(deadline) < prevDur
		out, err := serveRound(ctx, seed, plain.srv.URL, batchWait, tenantNames, serveSamples, wantHeap, &res.t)
		if err != nil {
			return nil, fmt.Errorf("serve-http-fleet round %d: %w", n, err)
		}
		prevDur = time.Since(roundStart)
		if wantHeap {
			res.heapMB = out.heapMB
		}
		rd := round{setup: out.setup, wall: out.wall, queries: out.unique, hash: tenantHash(out.tenants)}
		var gaps []time.Duration
		for _, tr := range out.tenants {
			rd.samples += tr.c.n
			gaps = append(gaps, tr.c.gaps...)
			res.firsts = append(res.firsts, float64(tr.c.first)/1e6)
			submits = append(submits, float64(tr.submit))
			streamBytes += tr.streamBytes
			delivered += int64(tr.c.n)
			if tr.state != string(serve.StateDone) {
				failedJobs++
			}
		}
		res.addRound(rd, gaps)
		if n > 0 {
			res.t.op(rd.hash == res.rounds[0].hash && rd.queries == res.rounds[0].queries, fmt.Sprintf("round %d trajectories or bill differ from round 0", n))
		}
		lastMem, lastSamples = out.mem, rd.samples
		for i := 0; i < serveProbes; i++ {
			pout, err := serveRound(ctx, (seed*1000+uint64(n))*serveProbes+uint64(i), plain.srv.URL, batchWait, []string{"probe"}, serveFleet, false, &res.t)
			if err != nil {
				return nil, fmt.Errorf("serve-http-fleet probe: %w", err)
			}
			res.setups = append(res.setups, pout.setup.Seconds())
			res.firsts = append(res.firsts, float64(pout.tenants[0].c.first)/1e6)
		}

		if traced {
			activeTrace.Store(st)
			tout, err := serveRound(ctx, seed, traceScheme+":?src="+url.QueryEscape(st.provider), 0, tenantNames, serveSamples, false, &res.t)
			activeTrace.Store(nil)
			if err != nil {
				return nil, fmt.Errorf("traced round %d: %w", n, err)
			}
			th := tenantHash(tout.tenants)
			res.t.op(th == rd.hash && tout.unique == rd.queries, fmt.Sprintf("traced round differs from untraced: hash %x vs %x, queries %d vs %d", th, rd.hash, tout.unique, rd.queries))
			overheads = append(overheads, float64(tout.wall)/float64(out.wall)-1)
			tracedWall += tout.wall
			tracedSamples += rd.samples
			withdrawn += st.withdrawn()
		}
	}
	if res.heapMB == 0 {
		out, err := serveRound(ctx, seed, plain.srv.URL, batchWait, tenantNames, serveSamples, true, &res.t)
		if err != nil {
			return nil, err
		}
		res.heapMB = out.heapMB
	}
	m := res.layers
	if traced {
		a := st.tr.analyze()
		seam := tp.seam
		trips, ids := a.kinds[kFetch].count, a.kinds[kFetch].ids
		setLayer(m, "batch.round_trips_per_sample", float64(trips)/float64(tracedSamples))
		if trips > 0 {
			setLayer(m, "batch.ids_per_trip", float64(ids)/float64(trips))
		}
		setLayer(m, "batch.withdrawn", float64(withdrawn))
		wait50, _ := percentile(st.book.waits, 0.50)
		setLayer(m, "batch.window_wait_ns_p50", wait50)
		rt50, _ := percentile(a.kinds[kFetch].durs, 0.50)
		rt99, _ := percentile(a.kinds[kFetch].durs, 0.99)
		setLayer(m, "httpsrc.round_trip_ns_p50", rt50)
		setLayer(m, "httpsrc.round_trip_ns_p99", rt99)
		setLayer(m, "httpsrc.server_busy_ns", median(seam.busy))
		if ids > 0 {
			client := a.kinds[kFetch].total - seam.handlerNS.Load()
			setLayer(m, "httpsrc.client_ns_per_id", float64(client)/float64(ids))
			setLayer(m, "httpsrc.resp_bytes_per_id", float64(seam.respBytes.Load())/float64(ids))
			setLayer(m, "httpsrc.req_bytes_per_id", float64(seam.reqBytes.Load())/float64(ids))
		}
		setLayer(m, "httpsrc.revalidated", float64(seam.revalidated.Load()))
		setLayer(m, "trace.overhead", median(overheads))
		res.logf("%s", a.countLine())
		res.logf("%s", serveWallLine(&a, seam, &st.book, tracedWall, tracedSamples))
		res.logf("tracing overhead: traced round wall clock is %+.1f%% of untraced (median of %d pairs)", 100*median(overheads), len(overheads))
	}
	setLayer(m, "serve.submit_ns", median(submits))
	if delivered > 0 {
		setLayer(m, "serve.stream_bytes_per_sample", float64(streamBytes)/float64(delivered))
	}
	setLayer(m, "serve.jobs_failed", float64(failedJobs))
	allocLayers(lastMem, lastSamples, m)
	return res, nil
}

// tenantHash folds the tenants' trajectory hashes in tenant order.
func tenantHash(ts []*tenantRun) uint64 {
	h := uint64(14695981039346656037)
	for _, tr := range ts {
		h = (h ^ tr.c.hash()) * fnvPrime
	}
	return h
}

// serveWallLine says where a traced serve round's wall clock went: the
// demand the daemon sent to the batcher per sample, the window wait, and
// the round trip split into injected latency, provider work and the client
// side (codec, loopback, connection handling).
func serveWallLine(a *analysis, seam *handlerSeam, book *waitBook, wall time.Duration, samples int) string {
	perSample := float64(wall) / float64(samples) / 1e3
	trips := a.kinds[kFetch].count
	if trips == 0 {
		return fmt.Sprintf("wall clock %.3f s, %.1f us per sample; no round trips", wall.Seconds(), perSample)
	}
	rt := float64(a.kinds[kFetch].total) / float64(trips) / 1e3
	busy := median(seam.busy) / 1e3
	lat := float64(providerLatency) / 1e3
	return fmt.Sprintf("wall clock %.3f s, %.1f us per sample across 2x%d walkers; %d demands and %d round trips; a demand waits %.0f us (median) in the batch window, a round trip takes %.0f us on average: %.0f us injected latency, %.0f us provider work (median), %.0f us client side and loopback",
		wall.Seconds(), perSample, serveFleet, a.kinds[kDemand].count, trips, median(book.waits)/1e3, rt, lat, busy, rt-lat-busy)
}
