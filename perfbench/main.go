// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks the program's outputs, and prints a human-readable
// report followed by one JSON line:
//
//	perfbench --workload mto-crawl --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// each round is also repeated through the benchmark's timing seams, and the
// JSON carries the per-layer metrics. Workloads, metrics and the layer map
// are described in perfbench/README.md and perfbench/layers.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A layer that does no work on a workload (or has no seam there)
// reports 0.
var layerUnits = map[string]string{
	"walk.step_ns_p50":              "ns",
	"walk.step_ns_p99":              "ns",
	"core.self_ns_per_step":         "ns",
	"core.removed":                  "edge",
	"core.added":                    "edge",
	"osn.calls_per_step":            "call/step",
	"osn.hit_ratio":                 "ratio",
	"osn.hit_ns_p50":                "ns",
	"osn.miss_ns_p50":               "ns",
	"osn.miss_ns_p99":               "ns",
	"osn.self_ns_per_miss":          "ns",
	"batch.round_trips_per_sample":  "trip/sample",
	"batch.ids_per_trip":            "id/trip",
	"batch.withdrawn":               "id",
	"batch.window_wait_ns_p50":      "ns",
	"httpsrc.round_trip_ns_p50":     "ns",
	"httpsrc.round_trip_ns_p99":     "ns",
	"httpsrc.server_busy_ns":        "ns",
	"httpsrc.client_ns_per_id":      "ns/id",
	"httpsrc.resp_bytes_per_id":     "B/id",
	"httpsrc.req_bytes_per_id":      "B/id",
	"httpsrc.revalidated":           "count",
	"serve.submit_ns":               "ns",
	"serve.stream_bytes_per_sample": "B/sample",
	"serve.jobs_failed":             "job",
	"durable.append_ns_p50":         "ns",
	"durable.append_ns_p99":         "ns",
	"durable.wal_bytes_per_entry":   "B/record",
	"durable.compactions":           "count",
	"durable.replay_s":              "s",
	"durable.replayed_records":      "record",
	"graph.snapshot_open_ns":        "ns",
	"graph.snapshot_bytes_per_edge": "B/edge",
	"alloc.per_sample":              "alloc/sample",
	"alloc.bytes_per_sample":        "B/sample",
	"gc.cycles":                     "count",
	"trace.overhead":                "ratio",
}

// procs is the GOMAXPROCS every workload runs with. One P fixes how the
// walkers, the consumer and the daemon's goroutines hand off to each other:
// with more, whether a hand-off wakes an idle thread (tens of microseconds
// on a virtual machine) or stays on the running one depends on the host's
// load, and the sample gaps and first-sample times flip between those modes
// from run to run. The workloads' concurrency is latency overlap (the
// fleets wait on round trips together), which one P keeps.
const procs = 1

// setLayer records a per-layer metric under its table unit.
func setLayer(m map[string]metric, name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is missing from layerUnits")
	}
	m[name] = metric{v, unit}
}

var workloads = map[string]func(ctx context.Context, dir string, seed uint64, seconds time.Duration, traced bool) (*result, error){
	"mto-crawl":        runMTOCrawl,
	"durable-recrawl":  runDurableRecrawl,
	"serve-http-fleet": runServeFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: mto-crawl, serve-http-fleet or durable-recrawl")
	seed := flag.Uint64("seed", 1, "input seed: the walker and job seeds derive from it (the graphs are the fixed-seed presets)")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 repeats each round through the timing seams and reports per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for generated inputs (removed afterwards)")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if err := run(*workload, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, workdir string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want mto-crawl, serve-http-fleet or durable-recrawl)", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	res, err := fn(ctx, dir, seed, time.Duration(seconds)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	if trace == 1 {
		for name := range layerUnits {
			if _, ok := res.layers[name]; !ok {
				setLayer(res.layers, name, 0)
			}
		}
	}
	return res.print(os.Stdout, trace == 1)
}
