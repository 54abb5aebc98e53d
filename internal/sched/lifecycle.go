// Worker lifecycle: backoff and parking for idle workers.
//
// The paper's Figure 3 loop spins forever — pop, yield, steal — because in
// its model the kernel already charges a spinning thief's steal attempts
// against the schedule's bound; burning the processor is the analysis's
// problem, not the program's. On a live machine it is very much the
// program's problem: every idle worker pins a full core at 100%. This file
// adds the standard remedy, the one Go's own runtime (findRunnable ->
// stopm/wakep) and ForkJoinPool use atop the same ABP-style deques: after
// parkThreshold consecutive failed steal attempts a worker backs off with
// exponentially growing naps, then parks on a per-worker token channel.
// Spawn and Submit wake one idle worker whenever they make new work
// available.
//
// Both idle phases — the timed backoff naps and the final park — block in
// the same place (park) and are equally interruptible: the worker counts
// itself idle, publishes its parked flag, re-checks for work, and only then
// sleeps, selecting on its wake token. Before this was unified, a worker
// napping in backoff was invisible to signalWork (not parked, idle at 0),
// so a submission arriving mid-nap silently waited out the remaining sleep
// — up to ~127µs of per-request wake latency in serve mode, the satellite
// bug this file's history fixed.
//
// Lost-wakeup freedom is the usual Dekker argument over Go's sequentially
// consistent atomics: a producer publishes work (an atomic store inside the
// deque's PushBottom, or the injector's reservation CAS) and then reads the
// parked flags; an idle worker publishes its parked flag and then re-scans
// every injector shard and deque. Whichever order the two interleave in,
// one side must observe the other, so work published while a worker is
// going to sleep either earns that worker a wake token or is seen by its
// pre-block recheck. Spurious wake tokens are harmless (the worker scans,
// finds nothing, and goes back to sleep); only lost ones would be fatal.
// The argument is indifferent to whether the sleep is timed: a nap that
// can only be cut short errs on the side of waking, never of sleeping.
//
// Termination needs no flag-spinning either: the session teardown
// (Pool.endSession) closes the session's quit channel, waking every
// parked or napping worker at once so the pool shuts down cleanly — the
// stopped flag is only the loop-exit condition, never a spin target.
//
// The paper's yield discipline is preserved where it matters: in the hot
// phase (below the threshold) a thief still calls runtime.Gosched between
// steal attempts, exactly Figure 3's yield-then-steal round. Parking only
// ever happens when every injector shard and deque is observably empty,
// i.e. when the steal the paper would have made was guaranteed to fail
// anyway.
package sched

import (
	"runtime"
	"time"

	"worksteal/internal/fault"
)

const (
	// backoffSteps naps of backoffBase<<step precede parking
	// (1us..64us, ~127us total): work arriving shortly after a worker
	// goes idle is picked up with microsecond latency, while longer
	// idle gaps cost one park/wake round trip.
	backoffSteps = 7
	backoffBase  = time.Microsecond

	// injectorPollPeriod is how often (in loop iterations) a busy worker
	// checks the injector shards ahead of its local deque, bounding how
	// long a deep local backlog can starve external submissions — the Go
	// runtime's schedule()-checks-the-global-queue-every-61-ticks idiom,
	// prime for the same reason (avoids resonance with task-tree shapes).
	injectorPollPeriod = 61
)

// loop is the Figure 3 scheduling loop — pop the bottom of the local
// deque; when empty, yield and steal from the top of a random victim —
// extended with the injector polls that feed external submissions in and
// wrapped in the backoff/parking lifecycle described above.
//
//abp:owner the worker goroutine is its deque's single owner for the run
func (w *Worker) loop() {
	defer w.pool.wg.Done()
	defer w.recoverLoopPanic()
	if w.pool.cfg.Pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	fault.Point(fpLoopEnter)
	// Root fallback from startSession. execOrDrop keeps an aborted session's
	// root (e.g. a pre-cancelled RunContext) from executing into a dead
	// run: it is discarded and counted instead.
	//abp:race-ignore startSession writes handoff before forking the fleet manager, and the manager forks every mid-session loop: the composed fork edges (Go MM transitivity) order the write before this read; the analyzer does not chase nested fork chains
	if t := w.handoff.Get(); t != nil {
		w.handoff.Set(nil)
		w.execOrDrop(t)
	}
	fails := 0
	ticks := 0
	for !w.pool.stopped.Load() {
		// The shrink safe point (resize.go): a worker marked retiring
		// re-publishes its deque through the injector and exits — unless a
		// concurrent grow reactivated it, in which case retire reports
		// false and the loop carries on. Checked every iteration, so a
		// retiring worker never parks without first noticing the mark.
		if w.state.Load() == workerRetiring && w.retire() {
			return
		}
		w.progress.Add(1)
		ticks++
		var t *Task
		if ticks%injectorPollPeriod == 0 {
			// Fairness poll: with a non-empty local deque the injector
			// would otherwise only be drained by idle workers.
			t = w.pollInjector()
		}
		if t == nil {
			t = w.dq.PopBottom()
		}
		if t == nil {
			if !w.pool.cfg.DisableYield {
				w.yields.Add(1)
				runtime.Gosched()
			}
			fault.Point(fpLoopBeforeSteal)
			// Idle: drain submissions ahead of stealing — an injected root
			// is the oldest work in the system — then try one victim.
			if t = w.pollInjector(); t == nil {
				t = w.stealOnce()
			}
		}
		if t != nil {
			fails = 0
			w.execOrDrop(t)
			continue
		}
		fails++
		if w.idleWait(fails) {
			fails = 0 // woken by a work signal: restart the hot phase
		}
	}
}

// recoverLoopPanic is the recover-and-terminate path for a panic raised by
// the loop machinery itself — outside exec's per-task recover, e.g. an
// injected fault.Point panic between tasks. Without it such a panic would
// escape the worker goroutine and crash the process (and, were it somehow
// swallowed, strand pending counters above zero and wedge every waiter).
// Instead it is treated as an engine failure: every in-flight submission
// aborts with the panic value (waking parked workers, blocked Joins, and
// Handle waiters), and the session controller — Run's waiter or Serve's
// select — re-panics with the original value after the workers drain.
func (w *Worker) recoverLoopPanic() {
	if r := recover(); r != nil {
		w.pool.engineFail(r)
	}
}

// idleWait escalates an idle worker through the lifecycle: hot spinning
// below parkThreshold, then exponentially growing interruptible naps, then
// parking outright. It reports whether the worker was woken by a work
// signal (the caller restarts the hot phase); a nap that merely timed out
// returns false so the escalation continues.
func (w *Worker) idleWait(fails int) bool {
	p := w.pool
	if p.cfg.DisableParking {
		return false
	}
	step := fails - p.parkThreshold
	if step < 0 {
		return false
	}
	if step < backoffSteps {
		return w.park(backoffBase << step)
	}
	return w.park(0)
}

// park blocks the worker — for at most d if d > 0 (a backoff nap), else
// until signalled — and reports whether it was woken by a work signal. Both
// variants run the full Dekker protocol with signalWork: publish the idle
// count and the parked flag, then re-check for work, and only then sleep on
// the wake token. The handshake directive makes abplint verify that
// ordering: the parked store must dominate the anyVisibleWork re-scan, and
// every access to the flag must be atomic. The session quit channel
// (closed by endSession) bounds every sleep at shutdown.
//
//abp:handshake store=parked load=anyVisibleWork
func (w *Worker) park(d time.Duration) bool {
	p := w.pool
	p.idle.Add(1)
	w.parked.Store(true)
	if p.stopped.Load() || w.anyVisibleWork() {
		w.parked.Store(false)
		p.idle.Add(-1)
		return false
	}
	woke := false
	if d > 0 {
		// The backoff-visibility chaos window: idle count and parked flag
		// are published and the re-check passed, but the nap has not
		// begun. A submission arriving now must find this worker
		// signallable (the satellite-1 regression test freezes here).
		fault.Point(fpBackoffBeforeSleep)
		start := time.Now()
		timer := time.NewTimer(d)
		select {
		case <-w.parkCh:
			w.wakes.Add(1)
			woke = true
		case <-timer.C:
		// Session shutdown: don't sleep out the nap.
		//abp:race-ignore quitCh is written in startSession before the fleet manager fork, and every mid-session loop is forked by the manager: the composed fork edges order the write before this read; the analyzer does not chase nested fork chains
		case <-p.quitCh:
		}
		timer.Stop()
		w.backoffNanos.Add(int64(time.Since(start)))
	} else {
		w.parks.Add(1)
		// The window the abort/park chaos test targets: parked is
		// published and the re-check passed, but the worker is not yet
		// blocked. A suspension here models preemption between those two
		// instructions; a shutdown arriving meanwhile must still wake the
		// worker.
		fault.Point(fpParkBeforeSleep)
		select {
		case <-w.parkCh:
			w.wakes.Add(1)
			woke = true
		case <-p.quitCh: // session shutdown (run ended, Serve stopping, or abort)
		}
	}
	w.parked.Store(false)
	p.idle.Add(-1)
	return woke
}

// signalWork wakes one idle worker — parked or napping in backoff — if any.
// The caller must already have made the new work visible (pushed it onto a
// deque or reserved an injector cell); see the Dekker argument in the file
// comment. The token channel has capacity one, so a signal to a worker
// with a pending token is absorbed rather than lost: the send sits in a
// select with default and can never block the producer.
//
// The scan starts at a rotating cursor rather than index zero: a fixed
// start always wakes the lowest-indexed parked worker, so under a trickle
// of submissions worker 0 absorbs every wake while the rest of the fleet
// sleeps cold (stale deque affinity, cold stacks). Rotating spreads wakes
// across the fleet; the cursor is a plain consumed Add like shardRR's,
// with no fairness guarantee needed beyond breaking the fixed bias.
//
//abp:nonblocking
func (p *Pool) signalWork() {
	if p.idle.Load() == 0 {
		return
	}
	n := len(p.workers)
	start := int(p.wakeRR.Add(1)-1) % n
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		// Only active workers are wake targets: a token delivered to a
		// parked-but-retiring worker could be consumed by a wake that ends
		// in retirement rather than work — a lost wakeup for the rest of
		// the (still-parked) fleet. Retiring workers are woken by Resize
		// itself, and a completed retire passes any absorbed signal on
		// (retire's final signalWork in resize.go).
		if w.state.Load() == workerActive && w.parked.Load() {
			select {
			case w.parkCh <- struct{}{}:
			default:
			}
			return
		}
	}
}
