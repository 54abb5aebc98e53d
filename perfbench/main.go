// Command perfbench is the repository's benchmark. It drives the
// scheduler only through its public API (sched.New, Pool.Run, Pool.Serve,
// Pool.Submit, Handle.Wait, Fork/Join/Join2, Group, Pool.Stats, RunGraph
// and deque.New*), checks every result, and prints its metrics by name
// with units; the last line of standard output is one JSON object.
//
//	perfbench --workload forkjoin|dag|serve_closed|serve_overload \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced windows and reports the per-layer
// metrics, and writes the span file and per-layer summary under --out.
// See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"worksteal/internal/sched"
)

// Validity bounds. A measurement window in which the hypervisor stole
// more than maxSteal of the machine's CPU time (steal takes about that
// share off ops_per_s, most of the bound BENCHMARK.json gives it), or in
// which the open-loop generator fell more than maxShortfall below its
// offered rate, is dropped; a run that keeps fewer than half of its
// windows reports no numbers and exits nonzero.
var (
	maxSteal     = 0.20
	maxShortfall = 0.05
)

// Set-up is repeated this many times per run and its median reported, so
// a one-off stall does not read as a set-up regression.
var setupReps = 7

// workload is one named input of the benchmark.
type workload interface {
	// setup builds the inputs and pools, starts serving and warms up.
	setup()
	// teardown stops whatever setup started.
	teardown()
	// window runs the workload for about d, or until the tracer fills,
	// and returns what it measured. tr is nil in untraced windows.
	window(d time.Duration, tr *tracer) *sample
	// finish adds the workload's own end-to-end metrics (work_overhead
	// and speedup) computed from the kept untraced windows.
	finish(m map[string]float64, kept []*sample)
	// forkAllocs measures allocations per fork of the fork primitive the
	// workload uses, or returns 0 if it forks nothing.
	forkAllocs() float64
}

// sample is what one measurement window saw.
type sample struct {
	traced  bool
	elapsed time.Duration // real time the window took
	wall    time.Duration // the time ops_per_s divides by

	ops       int64 // correctly completed operations
	attempted int64 // operations whose outcome was checked
	failed    int64 // wrong results and unexpected errors
	refused   int64 // submissions shed with ErrOverloaded

	lat               []float64 // end-to-end latency samples, µs
	p50, p90          float64   // of lat, which is dropped after the window
	overhead, speedup []float64 // paired per-iteration ratios

	cpuNs, cpuOps int64   // CPU time and the ops it is charged to
	serialUs      float64 // serve: serial time of one op's work, this window
	allocOps      int64   // ops the window's allocations are charged to

	// Filled by the measurement loop around every window.
	allocs, heapBytes, gcCycles, gcPauseNs uint64
	steal                                  float64

	stats   sched.Stats // Pool.Stats delta over the window
	statOps int64       // ops the Stats delta is charged to
	graph   graphAgg

	gen genAgg
}

// graphAgg sums GraphResult over the GOMAXPROCS RunGraph calls.
type graphAgg struct {
	calls                        int64
	setupNs                      int64
	nodes, steals, tries, yields int64
	imbalance                    float64
}

// genAgg describes the open-loop generator of one window.
type genAgg struct {
	target   float64 // offered rate it was asked for, 1/s
	offered  int64   // submissions it made
	wall     time.Duration
	lateness hist // ns behind the due time at each Submit
}

func (s *sample) shortfall() float64 {
	if s.gen.target == 0 || s.gen.wall == 0 {
		return 0
	}
	return 1 - float64(s.gen.offered)/s.gen.wall.Seconds()/s.gen.target
}

func (s *sample) valid() bool {
	return s.steal <= maxSteal && s.shortfall() <= maxShortfall
}

// bench holds what every workload shares.
type bench struct {
	seed    int64
	rng     *rand.Rand
	workers int // pool size: GOMAXPROCS
	clients int // load goroutines: at most nproc
	corrupt atomic.Bool
	stall   atomic.Bool
}

// corruptOnce reports true exactly once when --corrupt is set; the
// workload then corrupts one result before its checker sees it.
func (b *bench) corruptOnce() bool { return b.corrupt.CompareAndSwap(true, false) }

// stallOnce reports true exactly once when --stall is set; the serve
// workloads then hold one submission back until it counts as lost.
func (b *bench) stallOnce() bool { return b.stall.Load() && b.stall.CompareAndSwap(true, false) }

func newBench(seed int64) *bench {
	return &bench{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		workers: runtime.GOMAXPROCS(0),
		clients: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	}
}

var workloads = map[string]func(*bench) workload{
	"forkjoin":       newForkJoin,
	"dag":            newDag,
	"serve_closed":   newServeClosed,
	"serve_overload": newServeOverload,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "latency_p50_us": "us", "latency_p90_us": "us",
	"ok_ratio": "ratio", "allocs_per_op": "count", "cpu_us_per_op": "us", "peak_rss_mb": "MiB",
	"work_overhead": "x", "speedup": "x",
}

var perLayerUnits = map[string]string{
	"deque.pushpop_ns": "ns", "deque.steal_ns": "ns",
	"fork.spawn_ns_p50": "ns", "fork.join_self_ns_p50": "ns", "fork.allocs_per_fork": "count",
	"fork.stolen_ratio": "ratio", "fork.stolen_start_us_p50": "us",
	"session.start_us_p50": "us", "session.end_us_p50": "us",
	"submit.accept_ns_p50": "ns", "submit.accept_ns_p90": "ns", "submit.reject_ns_p50": "ns",
	"queue.wait_us_p50": "us", "queue.wait_us_p90": "us",
	"handle.notify_us_p50": "us", "handle.notify_us_p90": "us",
	"stats.steals_per_op": "count", "stats.steal_attempts_per_op": "count", "stats.steal_success_ratio": "ratio",
	"stats.parks_per_op": "count", "stats.wakes_per_op": "count", "stats.backoff_us_per_op": "us",
	"stats.yields_per_op": "count", "stats.inline_runs_per_op": "count",
	"graph.setup_us": "us", "graph.steals_per_node": "count", "graph.steal_success_ratio": "ratio",
	"graph.yields_per_node": "count", "graph.node_imbalance": "x",
	"gc.cycles_per_kop": "count", "gc.pause_us_per_op": "us", "heap.bytes_per_op": "B",
	"gen.offered_per_s": "1/s", "gen.lateness_us_p50": "us", "gen.lateness_us_p99": "us",
	"trace.overhead_ratio": "ratio",
}

// stamp is written beside every result: the host key the numbers may
// only be compared under, and the validity evidence.
type stamp struct {
	hostKey
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Traced        bool              `json:"traced"`
	Windows       int               `json:"windows"`
	WindowsKept   int               `json:"windows_kept"`
	StealShare    []float64         `json:"steal_share"`
	OpsPerS       []float64         `json:"ops_per_s"`
	GenShortfall  []float64         `json:"gen_shortfall,omitempty"`
	GenOfferedPS  float64           `json:"gen_offered_per_s,omitempty"`
	Borrowed      map[string]string `json:"borrowed,omitempty"`
	Valid         bool              `json:"valid"`
	InvalidReason string            `json:"invalid_reason,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run runs one benchmark invocation and returns the exit status: 0 for a
// checked result, 1 when a result was wrong, 2 for bad arguments and 3
// for a run the validity bounds rejected.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "forkjoin, dag, serve_closed or serve_overload")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the stamp, span file and summary")
	corrupt := fs.Bool("corrupt", false, "self-test: corrupt one result before it is checked")
	stall := fs.Bool("stall", false, "self-test: hold one serve submission back past its resolve deadline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	b := newBench(*seed)
	w := mk(b)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		w.setup()
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.corrupt.Store(*corrupt)
	b.stall.Store(*stall)

	total := time.Duration(*seconds * float64(time.Second))
	var samples []*sample
	var agg layerAgg
	var probes map[string]float64
	if *trace == 1 {
		probes = layerProbes(w)
		samples = measureTraced(w, total, &agg)
	} else {
		samples = measure(w, total)
	}
	w.teardown()

	st := stamp{hostKey: readHostKey(), Workload: *name, Seed: *seed, Traced: *trace == 1, Windows: len(samples)}
	var kept []*sample
	for _, s := range samples {
		st.StealShare = append(st.StealShare, s.steal)
		st.OpsPerS = append(st.OpsPerS, s.opsPerS())
		if s.gen.target > 0 {
			st.GenShortfall = append(st.GenShortfall, s.shortfall())
		}
		if s.valid() {
			kept = append(kept, s)
		}
	}
	st.WindowsKept = len(kept)
	st.Valid = 2*len(kept) >= len(samples)
	if !st.Valid {
		st.InvalidReason = fmt.Sprintf("only %d of %d windows were within the steal (%.0f%%) and generator shortfall (%.0f%%) bounds",
			len(kept), len(samples), 100*maxSteal, 100*maxShortfall)
	}

	var res result
	for _, s := range samples {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}

	var values map[string]float64
	units := endToEndUnits
	if *trace == 1 {
		values = perLayer(kept, &agg, probes)
		units = perLayerUnits
		var reason string
		st.Borrowed, reason = borrowLayers(*name, *seed, total, values, &res)
		if reason != "" && st.Valid {
			st.Valid = false
			st.InvalidReason = reason
		}
	} else {
		values = endToEnd(kept)
		values["setup_s"] = median(setups)
		w.finish(values, kept)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	gen := sum(kept).gen
	st.GenOfferedPS = ratio(float64(gen.offered), gen.wall.Seconds())

	dir := filepath.Join(*out, *name)
	if *trace == 1 {
		agg.writeSummary(stdout, tracedOps(kept))
	}
	if err := writeArtifacts(dir, st, &agg, *trace == 1, tracedOps(kept)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	stampJSON, _ := json.Marshal(st) // plain data: cannot fail
	fmt.Fprintf(stdout, "# stamp %s\n", stampJSON)
	if !st.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid, no numbers reported: %s; %d of %d checked results were wrong\n",
			st.InvalidReason, res.Failed, res.Attempted)
		return 3
	}

	res.Metrics = map[string]metric{}
	names := make([]string, 0, len(units))
	for k := range units {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.Metrics[k] = metric{Value: values[k], Unit: units[k]}
		fmt.Fprintf(stdout, "# %-30s %16.4f %s\n", k, values[k], units[k])
	}
	if *trace == 0 {
		fmt.Fprintf(stdout, "# %-30s %16.4f %s\n", "failed_ratio", 1-values["ok_ratio"], "ratio")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checked results were wrong\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// windowLen splits a run into windows short enough that a burst of
// hypervisor steal costs one window, not the run.
func windowLen(total time.Duration) time.Duration {
	return min(total, 500*time.Millisecond)
}

// A run measures until the windows it keeps add up to the total time, so
// a burst of host steal lengthens the run rather than thinning it, but
// for no more than maxStretch times the total.
const maxStretch = 3

// measure runs untraced windows for the total time.
func measure(w workload, total time.Duration) []*sample {
	var out []*sample
	var spent, kept time.Duration
	for kept < total && spent < maxStretch*total {
		s := measureWindow(w, windowLen(total), nil)
		spent += s.elapsed
		if s.valid() {
			kept += s.elapsed
		}
		out = append(out, s)
	}
	return out
}

// measureTraced alternates untraced and traced windows of equal length,
// so both see the same drift, for the total time. It folds the spans of
// each traced window that is within the validity bounds and drops the
// others'.
func measureTraced(w workload, total time.Duration, agg *layerAgg) []*sample {
	tr := newTracer(1 << 19)
	win := windowLen(total) / 2
	var out []*sample
	var spent, kept time.Duration
	for kept < total && spent < maxStretch*total {
		u := measureWindow(w, win, nil)
		t := measureWindow(w, win, tr)
		if t.valid() {
			agg.fold(tr)
		} else {
			tr.reset()
		}
		for _, s := range []*sample{u, t} {
			spent += s.elapsed
			if s.valid() {
				kept += s.elapsed
			}
		}
		out = append(out, u, t)
	}
	return out
}

// measureWindow brackets one window with the steal meter and the
// runtime's memory statistics.
func measureWindow(w workload, d time.Duration, tr *tracer) *sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	meter := startSteal()
	t0 := time.Now()
	s := w.window(d, tr)
	s.elapsed = time.Since(t0)
	s.p50, s.p90 = quantile(s.lat, 0.5), quantile(s.lat, 0.9)
	s.lat = nil
	s.steal = meter.share()
	runtime.ReadMemStats(&m1)
	s.traced = tr != nil
	s.allocs = m1.Mallocs - m0.Mallocs
	s.heapBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = uint64(m1.NumGC - m0.NumGC)
	s.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return s
}

// untraced returns the untraced windows among kept ones: end-to-end
// numbers and per-layer counters come only from those.
func untraced(kept []*sample) []*sample {
	var out []*sample
	for _, s := range kept {
		if !s.traced {
			out = append(out, s)
		}
	}
	return out
}

func tracedOps(kept []*sample) int64 {
	var n int64
	for _, s := range kept {
		if s.traced {
			n += s.ops + s.refused
		}
	}
	return n
}

// totals sums the untraced windows.
type totals struct {
	wall                                   time.Duration
	ops, attempted, failed, refused        int64
	allocOps, statOps                      int64
	allocs, heapBytes, gcCycles, gcPauseNs uint64
	stats                                  sched.Stats
	graph                                  graphAgg
	gen                                    genAgg
}

func sum(samples []*sample) totals {
	var t totals
	for _, s := range samples {
		t.wall += s.wall
		t.ops += s.ops
		t.attempted += s.attempted
		t.failed += s.failed
		t.refused += s.refused
		t.allocOps += s.allocOps
		t.statOps += s.statOps
		t.allocs += s.allocs
		t.heapBytes += s.heapBytes
		t.gcCycles += s.gcCycles
		t.gcPauseNs += s.gcPauseNs
		addStats(&t.stats, s.stats)
		t.graph.calls += s.graph.calls
		t.graph.setupNs += s.graph.setupNs
		t.graph.nodes += s.graph.nodes
		t.graph.steals += s.graph.steals
		t.graph.tries += s.graph.tries
		t.graph.yields += s.graph.yields
		t.graph.imbalance += s.graph.imbalance
		t.gen.offered += s.gen.offered
		t.gen.wall += s.gen.wall
		t.gen.lateness.merge(&s.gen.lateness)
	}
	return t
}

func addStats(dst *sched.Stats, d sched.Stats) {
	dst.Steals += d.Steals
	dst.StealAttempts += d.StealAttempts
	dst.Parks += d.Parks
	dst.Wakes += d.Wakes
	dst.BackoffNanos += d.BackoffNanos
	dst.Yields += d.Yields
	dst.InlineRuns += d.InlineRuns
}

func statsDelta(a, b sched.Stats) sched.Stats {
	return sched.Stats{
		Steals:        b.Steals - a.Steals,
		StealAttempts: b.StealAttempts - a.StealAttempts,
		Parks:         b.Parks - a.Parks,
		Wakes:         b.Wakes - a.Wakes,
		BackoffNanos:  b.BackoffNanos - a.BackoffNanos,
		Yields:        b.Yields - a.Yields,
		InlineRuns:    b.InlineRuns - a.InlineRuns,
	}
}

// endToEnd computes the metrics every workload reports alike. Rates,
// latencies and CPU are medians over windows, so a window disturbed by
// another tenant moves them less than a pooled mean would.
func endToEnd(kept []*sample) map[string]float64 {
	u := untraced(kept)
	t := sum(u)
	var rate, p50, p90, cpu []float64
	for _, s := range u {
		rate = append(rate, s.opsPerS())
		p50 = append(p50, s.p50)
		p90 = append(p90, s.p90)
		cpu = append(cpu, ratio(float64(s.cpuNs), float64(s.cpuOps))/1e3)
	}
	return map[string]float64{
		"ops_per_s":      median(rate),
		"latency_p50_us": median(p50),
		"latency_p90_us": median(p90),
		"ok_ratio":       ratio(float64(t.attempted-t.failed-t.refused), float64(t.attempted)),
		"allocs_per_op":  ratio(float64(t.allocs), float64(t.allocOps)),
		"cpu_us_per_op":  median(cpu),
		"peak_rss_mb":    peakRSSMB(),
	}
}

func (s *sample) opsPerS() float64 { return ratio(float64(s.ops), s.wall.Seconds()) }

// perLayer computes the traced run's metrics: span-derived ones from the
// traced windows, counters from the untraced windows beside them.
func perLayer(kept []*sample, agg *layerAgg, probes map[string]float64) map[string]float64 {
	u := sum(untraced(kept))
	var tw time.Duration
	var tops int64
	for _, s := range kept {
		if s.traced {
			tw += s.wall
			tops += s.ops
		}
	}
	spawn, join := &agg.dur[spFork], &agg.self[spJoin]
	if agg.count[spFork] == 0 {
		spawn, join = &agg.dur[spSpawn], &agg.self[spGWait]
	}
	st := u.stats
	ops := float64(u.statOps)
	allocOps := float64(u.allocOps)
	g := u.graph
	m := map[string]float64{
		"fork.spawn_ns_p50":        spawn.quantile(0.5),
		"fork.join_self_ns_p50":    join.quantile(0.5),
		"fork.stolen_ratio":        ratio(float64(agg.stolen), float64(agg.children)),
		"fork.stolen_start_us_p50": agg.stolenStart.quantile(0.5) / 1e3,
		"session.start_us_p50":     agg.sessStart.quantile(0.5) / 1e3,
		"session.end_us_p50":       agg.sessEnd.quantile(0.5) / 1e3,
		"submit.accept_ns_p50":     agg.dur[spSubmit].quantile(0.5),
		"submit.accept_ns_p90":     agg.dur[spSubmit].quantile(0.9),
		"submit.reject_ns_p50":     agg.dur[spReject].quantile(0.5),
		"queue.wait_us_p50":        agg.queueWait.quantile(0.5) / 1e3,
		"queue.wait_us_p90":        agg.queueWait.quantile(0.9) / 1e3,
		"handle.notify_us_p50":     agg.notify.quantile(0.5) / 1e3,
		"handle.notify_us_p90":     agg.notify.quantile(0.9) / 1e3,

		"stats.steals_per_op":         ratio(float64(st.Steals), ops),
		"stats.steal_attempts_per_op": ratio(float64(st.StealAttempts), ops),
		"stats.steal_success_ratio":   ratio(float64(st.Steals), float64(st.StealAttempts)),
		"stats.parks_per_op":          ratio(float64(st.Parks), ops),
		"stats.wakes_per_op":          ratio(float64(st.Wakes), ops),
		"stats.backoff_us_per_op":     ratio(float64(st.BackoffNanos), ops) / 1e3,
		"stats.yields_per_op":         ratio(float64(st.Yields), ops),
		"stats.inline_runs_per_op":    ratio(float64(st.InlineRuns), ops),

		"graph.setup_us":            ratio(float64(g.setupNs), float64(g.calls)) / 1e3,
		"graph.steals_per_node":     ratio(float64(g.steals), float64(g.nodes)),
		"graph.steal_success_ratio": ratio(float64(g.steals), float64(g.tries)),
		"graph.yields_per_node":     ratio(float64(g.yields), float64(g.nodes)),
		"graph.node_imbalance":      ratio(g.imbalance, float64(g.calls)),

		"gc.cycles_per_kop":  ratio(float64(u.gcCycles), allocOps) * 1e3,
		"gc.pause_us_per_op": ratio(float64(u.gcPauseNs), allocOps) / 1e3,
		"heap.bytes_per_op":  ratio(float64(u.heapBytes), allocOps),

		"gen.offered_per_s":   ratio(float64(u.gen.offered), u.gen.wall.Seconds()),
		"gen.lateness_us_p50": u.gen.lateness.quantile(0.5) / 1e3,
		"gen.lateness_us_p99": u.gen.lateness.quantile(0.99) / 1e3,

		"trace.overhead_ratio": ratio(ratio(float64(tops), tw.Seconds()), ratio(float64(u.ops), u.wall.Seconds())),
	}
	for k, v := range probes {
		m[k] = v
	}
	return m
}

func writeArtifacts(dir string, st stamp, agg *layerAgg, traced bool, ops int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(st, "", "  ") // plain data: cannot fail
	if err := os.WriteFile(filepath.Join(dir, "stamp.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "summary.txt"))
	if err != nil {
		return err
	}
	agg.writeSummary(f, ops)
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(filepath.Join(dir, "spans.csv"))
	if err != nil {
		return err
	}
	if err := agg.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
