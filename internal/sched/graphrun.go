package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"worksteal/internal/atomicx"
	"worksteal/internal/dag"
	"worksteal/internal/deque"
)

// GraphConfig configures a native execution of an explicit computation dag.
// Because the dag's work T1 and critical-path length Tinf are known exactly,
// these runs are what the hardware experiments use to check the paper's
// bound on real processors.
type GraphConfig struct {
	Graph *dag.Graph
	// Workers is the number of worker goroutines (default GOMAXPROCS).
	Workers int
	// Deque selects the deque implementation (default DequeABP).
	Deque DequeKind
	// DisableYield removes the runtime.Gosched between steal attempts.
	DisableYield bool
	// NodeWork is the synthetic cost of executing one node, in iterations
	// of a small arithmetic loop; 0 means nodes are nearly free and
	// scheduling overhead dominates.
	NodeWork int
	// NodeFunc, if non-nil, is invoked when a node executes (after the
	// NodeWork spin). It runs exactly once per node, and all of the node's
	// dag predecessors have completed before it runs, so it can implement
	// real computations structured as dags (see examples/wavefront).
	// NodeFunc must be safe for concurrent invocation on different nodes.
	NodeFunc func(u dag.NodeID)
	// Seed seeds victim selection.
	Seed int64
	// Pin locks each worker to an OS thread.
	Pin bool
}

// GraphResult reports a native dag execution.
type GraphResult struct {
	Elapsed       time.Duration
	NodesExecuted int64
	Steals        int64
	StealAttempts int64
	Yields        int64
	// NodesPerWorker shows the work distribution.
	NodesPerWorker []int64
}

// graphRun holds the shared state of one native dag execution. The join
// counters (remaining) are sc — the decrement result is consumed, and
// exactly one decrementer enables each node — while the statistics and the
// done flag are blind publications read after the join (or, for done, a
// gate whose ordering the enabling decrements already provide).
type graphRun struct {
	cfg       GraphConfig
	g         *dag.Graph
	remaining []atomicx.SCInt32
	executed  atomicx.Publish64
	done      atomicx.PublishBool
	ids       []dag.NodeID // stable backing storage for deque pointers
	deques    []deque.Dequer[dag.NodeID]
	perWorker []atomicx.Publish64
	steals    atomicx.Publish64
	attempts  atomicx.Publish64
	yields    atomicx.Publish64
}

// RunGraph executes the dag with the Figure 3 scheduling loop on native
// goroutine workers and returns timing and distribution statistics. It
// panics if the execution ends without every node executed (which would
// indicate a scheduler bug; this cannot happen).
func RunGraph(cfg GraphConfig) GraphResult {
	if cfg.Graph == nil {
		panic("sched: GraphConfig.Graph is nil")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("sched: %d workers", cfg.Workers))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xAB9
	}
	n := cfg.Graph.NumNodes()
	r := &graphRun{
		cfg:       cfg,
		g:         cfg.Graph,
		remaining: make([]atomicx.SCInt32, n),
		ids:       make([]dag.NodeID, n),
		perWorker: make([]atomicx.Publish64, cfg.Workers),
	}
	for i := 0; i < n; i++ {
		r.remaining[i].Store(int32(cfg.Graph.InDegree(dag.NodeID(i))))
		r.ids[i] = dag.NodeID(i)
	}
	for i := 0; i < cfg.Workers; i++ {
		// The bounded deques can hold at most the number of nodes.
		switch cfg.Deque {
		case DequeMutex:
			r.deques = append(r.deques, deque.NewMutexWithCapacity[dag.NodeID](n+1))
		case DequeChaseLev:
			r.deques = append(r.deques, deque.NewChaseLev[dag.NodeID]())
		default:
			r.deques = append(r.deques, deque.NewWithCapacity[dag.NodeID](n+1))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker(i, seed+int64(i)*7_919, &wg)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if got := r.executed.Load(); got != int64(n) {
		panic(fmt.Sprintf("sched: graph run executed %d of %d nodes", got, n))
	}
	res := GraphResult{
		Elapsed:       elapsed,
		NodesExecuted: r.executed.Load(),
		Steals:        r.steals.Load(),
		StealAttempts: r.attempts.Load(),
		Yields:        r.yields.Load(),
	}
	for i := range r.perWorker {
		res.NodesPerWorker = append(res.NodesPerWorker, r.perWorker[i].Load())
	}
	return res
}

// worker runs the Figure 3 loop: execute the assigned node, then pop, push
// or steal according to how many children the execution enabled.
//
//abp:owner the worker goroutine is deques[id]'s single owner for the run
func (r *graphRun) worker(id int, seed int64, wg *sync.WaitGroup) {
	defer wg.Done()
	if r.cfg.Pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	rng := rand.New(rand.NewSource(seed))
	dq := r.deques[id]
	assigned := dag.None
	if id == 0 {
		assigned = r.g.Root() // root node assigned to process zero
	}
	var localSteals, localAttempts, localYields, localNodes int64
	defer func() {
		r.steals.Add(localSteals)
		r.attempts.Add(localAttempts)
		r.yields.Add(localYields)
		r.perWorker[id].Add(localNodes)
	}()

	for !r.done.Load() {
		if assigned != dag.None {
			u := assigned
			assigned = dag.None
			c0, c1 := r.execute(u)
			localNodes++
			switch {
			case c0 == dag.None: // died or blocked: pop
				if t := dq.PopBottom(); t != nil {
					assigned = *t
				}
			case c1 == dag.None: // one child: continue into it
				assigned = c0
			default: // two children: push one, run the other
				if !dq.PushBottom(&r.ids[c1]) {
					// Full deque cannot happen (capacity = n), but stay safe:
					// run both in sequence by keeping c1 ready via c0 path.
					panic("sched: graph deque overflow")
				}
				assigned = c0
			}
			continue
		}
		// Thief: yield, then one steal attempt on a random victim.
		if !r.cfg.DisableYield {
			localYields++
			runtime.Gosched()
		}
		if len(r.deques) == 1 {
			continue
		}
		v := rng.Intn(len(r.deques) - 1)
		if v >= id {
			v++
		}
		localAttempts++
		if t := r.deques[v].PopTop(); t != nil {
			localSteals++
			assigned = *t
		}
	}
}

// execute performs node u's synthetic work, then enables children by
// decrementing successor join counters; the last decrementer of a node
// enables it (exactly-once, via atomics). Returns up to two enabled
// children (c0 filled first).
func (r *graphRun) execute(u dag.NodeID) (c0, c1 dag.NodeID) {
	c0, c1 = dag.None, dag.None
	spin(r.cfg.NodeWork)
	if r.cfg.NodeFunc != nil {
		r.cfg.NodeFunc(u)
	}
	r.executed.Add(1)
	for _, e := range r.g.Succs(u) {
		if r.remaining[e.To].Add(-1) == 0 {
			if c0 == dag.None {
				c0 = e.To
			} else {
				c1 = e.To
			}
		}
	}
	if u == r.g.Final() {
		r.done.Store(true)
	}
	return c0, c1
}

// spinSink defeats dead-code elimination of the spin loop. Publication
// ordering suffices: nothing ever reads it back.
var spinSink atomicx.PublishUint64

// spin burns roughly n iterations of integer work.
func spin(n int) {
	if n <= 0 {
		return
	}
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}
