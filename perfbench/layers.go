package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"worksteal/internal/deque"
	"worksteal/internal/sched"
)

// layerProbes times the layers a workload's spans cannot isolate: the
// deque operations, called directly on one goroutine, and the fork
// primitive's allocations per fork.
func layerProbes(w workload) map[string]float64 {
	return map[string]float64{
		"deque.pushpop_ns":     dequePushPopNs(),
		"deque.steal_ns":       dequeStealNs(),
		"fork.allocs_per_fork": w.forkAllocs(),
	}
}

const probeRounds = 7

// dequePushPopNs is the median over rounds of one owner PushBottom plus
// PopBottom on the paper's deque.
func dequePushPopNs() float64 {
	d := deque.New[int]()
	x := 1
	const n = 1 << 18
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.PushBottom(&x)
			if d.PopBottom() == nil {
				panic("perfbench: deque lost an item")
			}
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(rounds)
}

// dequeStealNs is the median over rounds of one uncontended PopTop, the
// thief's side of a steal.
func dequeStealNs() float64 {
	d := deque.New[int]()
	x := 1
	const n = deque.DefaultCapacity / 2
	var rounds []float64
	for r := 0; r < probeRounds*8; r++ {
		for i := 0; i < n; i++ {
			if !d.PushBottom(&x) {
				panic("perfbench: deque refused a push")
			}
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if d.PopTop() == nil {
				panic("perfbench: deque lost an item")
			}
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/n)
		// The owner finding the deque empty resets its indices, as a
		// worker's failed pop does between steals.
		if d.PopBottom() != nil {
			panic("perfbench: drained deque returned an item")
		}
	}
	return median(rounds)
}

// allocsPerFork counts heap allocations per call of fork, run n times
// inside one Run on a one-worker pool, so no fork is ever stolen.
func allocsPerFork(fork func(w *sched.Worker)) float64 {
	const n = 10000
	p := sched.New(sched.Config{Workers: 1})
	p.Run(func(w *sched.Worker) { fork(w) }) // warm the pool's first session
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.Run(func(w *sched.Worker) {
		for i := 0; i < n; i++ {
			fork(w)
		}
	})
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// Every workload measures the deque probes, the Go runtime and its own
// tracing overhead; beyond those, ownLayers lists the per-layer metrics
// its own traced windows measure.
var (
	commonLayers = []string{"deque.", "gc.", "heap.", "trace."}
	ownLayers    = map[string][]string{
		"forkjoin":       {"fork.", "session.", "stats."},
		"dag":            {"graph."},
		"serve_closed":   {"fork.", "submit.accept", "queue.", "handle.", "stats."},
		"serve_overload": {"fork.", "submit.", "queue.", "handle.", "stats.", "gen."},
	}
)

// layerHomes names, for a layer a workload does not call, the workload
// that calls it most: its traced windows measure the layer instead, so
// every metric is a measurement and none reads a constant 0.
var layerHomes = []struct{ prefix, home string }{
	{"fork.", "forkjoin"}, {"session.", "forkjoin"}, {"stats.", "forkjoin"},
	{"submit.accept", "serve_closed"}, {"queue.", "serve_closed"}, {"handle.", "serve_closed"},
	{"submit.reject", "serve_overload"}, {"gen.", "serve_overload"},
	{"graph.", "dag"},
}

// homeOf returns the workload whose traced windows measure metric m when
// workload w runs: w itself for every layer it calls.
func homeOf(w, m string) string {
	for _, p := range append(commonLayers[:len(commonLayers):len(commonLayers)], ownLayers[w]...) {
		if strings.HasPrefix(m, p) {
			return w
		}
	}
	for _, h := range layerHomes {
		if strings.HasPrefix(m, h.prefix) {
			return h.home
		}
	}
	return w
}

// homeTime is the longest traced time spent on each home workload.
const homeTime = time.Second

// borrowLayers measures the layers workload name does not call on their
// home workloads, for homeTime or the run's total if that is shorter,
// overwrites those metrics in values, adds the home runs' checked results
// to res, and returns which metric came from where. As in the main run,
// only windows within the validity bounds count; if a home run keeps
// fewer than half of its windows, the reason is returned and the run
// reports no numbers.
func borrowLayers(name string, seed int64, total time.Duration, values map[string]float64, res *result) (map[string]string, string) {
	from := map[string]string{}
	byHome := map[string][]string{}
	for m := range perLayerUnits {
		if h := homeOf(name, m); h != name {
			from[m] = h
			byHome[h] = append(byHome[h], m)
		}
	}
	homes := make([]string, 0, len(byHome))
	for h := range byHome {
		homes = append(homes, h)
	}
	sort.Strings(homes)
	for _, h := range homes {
		w := workloads[h](newBench(seed))
		w.setup()
		var agg layerAgg
		samples := measureTraced(w, min(total, homeTime), &agg)
		w.teardown()
		var kept []*sample
		for _, s := range samples {
			res.Attempted += s.attempted
			res.Failed += s.failed
			if s.valid() {
				kept = append(kept, s)
			}
		}
		if 2*len(kept) < len(samples) {
			return from, fmt.Sprintf("home workload %s kept only %d of %d windows", h, len(kept), len(samples))
		}
		hv := perLayer(kept, &agg, map[string]float64{"fork.allocs_per_fork": w.forkAllocs()})
		for _, m := range byHome[h] {
			values[m] = hv[m]
		}
	}
	return from, ""
}
