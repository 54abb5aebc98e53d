package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"worksteal/internal/dag"
	"worksteal/internal/sched"
	dags "worksteal/internal/workload"
)

// fib(22) at cutoff 10 forks 609 times per root: fine enough that
// the scheduler's own overhead shows beside the leaf work.
const fibN, fibCutoff = 22, 10

// FibDag(16) with 50 spins per node is the fine-grain dag on which
// RunGraph's separate loop shows negative scaling.
const dagN, dagNodeWork = 16, 50

// The three calls of one iteration, run in a seed-chosen order so a
// drift in machine speed hits the serial baseline, the one-worker pool
// and the full pool alike and the paired ratios stay steady.
const (
	callSerial = iota
	callP1
	callPG
)

var orders = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// pairedIter runs one serial / one-worker / full-pool triple and records
// it in s; call performs a call and reports whether its result checked.
func pairedIter(s *sample, rng *rand.Rand, call func(which int) (time.Duration, bool)) {
	var t [3]time.Duration
	okPG := false
	for _, which := range orders[rng.Intn(len(orders))] {
		c0 := cpuNanos()
		d, ok := call(which)
		if which == callPG {
			s.cpuNs += cpuNanos() - c0
		}
		t[which] = d
		s.attempted++
		if !ok {
			s.failed++
		} else if which == callPG {
			okPG = true
		}
	}
	if okPG {
		s.ops++
	}
	s.cpuOps++
	s.allocOps += 2 // both pool calls allocate; the serial call does not
	s.wall += t[callPG]
	s.lat = append(s.lat, float64(t[callPG].Nanoseconds())/1e3)
	s.overhead = append(s.overhead, float64(t[callP1])/float64(t[callSerial]))
	s.speedup = append(s.speedup, float64(t[callP1])/float64(t[callPG]))
}

// finishPaired reports the paired medians: work overhead is
// T(P=1)/T(serial) and speedup T(P=1)/T(P=GOMAXPROCS), each taken per
// iteration so slow drift cancels.
func finishPaired(m map[string]float64, kept []*sample) {
	var oh, sp []float64
	for _, s := range untraced(kept) {
		oh = append(oh, s.overhead...)
		sp = append(sp, s.speedup...)
	}
	m["work_overhead"] = median(oh)
	m["speedup"] = median(sp)
}

type forkJoin struct {
	b      *bench
	p1, pg *sched.Pool
	want   int
	op     uint32
}

func newForkJoin(b *bench) workload { return &forkJoin{b: b} }

func fibSerial(n int) int {
	if n < 2 {
		return n
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func fibJoin2(w *sched.Worker, n int) int {
	if n < fibCutoff {
		return fibSerial(n)
	}
	a, b := sched.Join2(w,
		func(w *sched.Worker) int { return fibJoin2(w, n-1) },
		func(w *sched.Worker) int { return fibJoin2(w, n-2) })
	return a + b
}

// fibTraced is fibJoin2 with Join2 spelled out as the Fork, inline call
// and Join it is made of, so each can carry its own span. cur is the
// span of the task body it runs in.
func fibTraced(w *sched.Worker, n int, tr *tracer, op uint32, cur int32) int {
	if n < fibCutoff {
		return fibSerial(n)
	}
	fs := tr.begin(spFork, w.ID(), op, cur)
	fut := sched.Fork(w, func(w *sched.Worker) int {
		c := tr.begin(spChild, w.ID(), op, fs)
		v := fibTraced(w, n-1, tr, op, c)
		tr.end(c)
		return v
	})
	tr.end(fs)
	b := fibTraced(w, n-2, tr, op, cur)
	js := tr.begin(spJoin, w.ID(), op, cur)
	a := fut.Join(w)
	tr.end(js)
	return a + b
}

func (f *forkJoin) setup() {
	f.want = fibSerial(fibN)
	f.p1 = sched.New(sched.Config{Workers: 1, Seed: f.b.seed})
	f.pg = sched.New(sched.Config{Workers: f.b.workers, Seed: f.b.seed})
	var s sample
	for i := 0; i < 300; i++ {
		f.iter(&s, nil)
	}
	if s.failed > 0 {
		panic(fmt.Sprintf("perfbench: forkjoin warm-up computed %d wrong results", s.failed))
	}
}

func (f *forkJoin) teardown() {}

func (f *forkJoin) iter(s *sample, tr *tracer) {
	pairedIter(s, f.b.rng, func(which int) (time.Duration, bool) {
		var got int
		t0 := time.Now()
		switch which {
		case callSerial:
			got = fibSerial(fibN)
		case callP1:
			f.p1.Run(func(w *sched.Worker) { got = fibJoin2(w, fibN) })
		case callPG:
			if tr == nil {
				f.pg.Run(func(w *sched.Worker) { got = fibJoin2(w, fibN) })
				break
			}
			f.op++
			op := f.op
			rs := tr.begin(spRun, f.b.workers, op, -1)
			f.pg.Run(func(w *sched.Worker) {
				r := tr.begin(spRoot, w.ID(), op, rs)
				got = fibTraced(w, fibN, tr, op, r)
				tr.end(r)
			})
			tr.end(rs)
		}
		d := time.Since(t0)
		if f.b.corruptOnce() {
			got++
		}
		return d, got == f.want
	})
}

func (f *forkJoin) window(d time.Duration, tr *tracer) *sample {
	s := &sample{}
	st0 := f.pg.Stats()
	for t0 := time.Now(); time.Since(t0) < d && !tr.nearlyFull(); {
		f.iter(s, tr)
	}
	s.stats = statsDelta(st0, f.pg.Stats())
	s.statOps = s.ops
	return s
}

func (f *forkJoin) finish(m map[string]float64, kept []*sample) { finishPaired(m, kept) }

func (f *forkJoin) forkAllocs() float64 {
	return allocsPerFork(func(w *sched.Worker) {
		sched.Fork(w, func(*sched.Worker) int { return 1 }).Join(w)
	})
}

type dagWL struct {
	b     *bench
	g     *dag.Graph
	order []dag.NodeID
	ran   []atomic.Int32 // per node: times run since the last check
}

func newDag(b *bench) workload { return &dagWL{b: b} }

func (d *dagWL) setup() {
	d.g = dags.FibDag(dagN)
	order, err := d.g.TopoOrder()
	if err != nil {
		panic(fmt.Sprintf("perfbench: FibDag(%d): %v", dagN, err))
	}
	d.order = order
	d.ran = make([]atomic.Int32, d.g.NumNodes())
	var s sample
	for i := 0; i < 100; i++ {
		d.iter(&s, nil)
	}
	if s.failed > 0 {
		panic(fmt.Sprintf("perfbench: dag warm-up computed %d wrong results", s.failed))
	}
}

func (d *dagWL) teardown() {}

// spinSink keeps spin's loop from being optimised away.
var spinSink atomic.Uint64

// spin is the same xorshift loop RunGraph runs as NodeWork, so the serial
// baseline does the same work per node.
func spin(n int) {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}

// checkRan verifies every node ran exactly once since the last check.
func (d *dagWL) checkRan() bool {
	ok := true
	for i := range d.ran {
		if d.ran[i].Swap(0) != 1 {
			ok = false
		}
	}
	return ok
}

func (d *dagWL) iter(s *sample, tr *tracer) {
	pairedIter(s, d.b.rng, func(which int) (time.Duration, bool) {
		cfg := sched.GraphConfig{
			Graph:    d.g,
			NodeWork: dagNodeWork,
			NodeFunc: func(u dag.NodeID) { d.ran[u].Add(1) },
			Seed:     d.b.seed,
		}
		var res sched.GraphResult
		t0 := time.Now()
		switch which {
		case callSerial:
			for _, u := range d.order {
				spin(dagNodeWork)
				d.ran[u].Add(1)
			}
			res.NodesExecuted = int64(len(d.order))
		case callP1:
			cfg.Workers = 1
			res = sched.RunGraph(cfg)
		case callPG:
			cfg.Workers = d.b.workers
			gs := tr.begin(spGraph, d.b.workers, uint32(s.ops), -1)
			res = sched.RunGraph(cfg)
			tr.end(gs)
		}
		wall := time.Since(t0)
		if which == callPG {
			s.graph.add(res, wall)
		}
		if d.b.corruptOnce() {
			d.ran[0].Add(1)
		}
		return wall, res.NodesExecuted == int64(d.g.Work()) && d.checkRan()
	})
}

func (g *graphAgg) add(res sched.GraphResult, wall time.Duration) {
	g.calls++
	g.setupNs += (wall - res.Elapsed).Nanoseconds()
	g.nodes += res.NodesExecuted
	g.steals += res.Steals
	g.tries += res.StealAttempts
	g.yields += res.Yields
	var most, all int64
	for _, n := range res.NodesPerWorker {
		most = max(most, n)
		all += n
	}
	g.imbalance += ratio(float64(most), float64(all)/float64(len(res.NodesPerWorker)))
}

func (d *dagWL) window(w time.Duration, tr *tracer) *sample {
	s := &sample{}
	for t0 := time.Now(); time.Since(t0) < w && !tr.nearlyFull(); {
		d.iter(s, tr)
	}
	return s
}

func (d *dagWL) finish(m map[string]float64, kept []*sample) { finishPaired(m, kept) }

func (d *dagWL) forkAllocs() float64 { return 0 }
