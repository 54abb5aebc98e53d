// Pool-as-a-service: the long-lived Serve/Submit engine.
//
// PRs 1–5 hardened a batch engine: Run(root) started the workers, ran one
// root to completion behind a barrier, and shut them down. This file turns
// the same workers into a persistent service. Serve(ctx) starts the
// scheduling loops once and keeps them alive across submissions; Submit
// may be called from any goroutine and enqueues a new root onto the
// bounded injector shards (injector.go), which workers poll between local
// pops and steals. Each submission carries its own run record — pending
// counter, abort cause, completion future — so cancellation, panic
// isolation, the stall watchdog, and the chaos failpoints all apply per
// submission instead of per batch. Run and RunContext are reimplemented on
// top of the same session machinery (pool.go), so the entire pre-existing
// test, chaos, and bench surface exercises this engine.
//
// The deviation from the paper's single-root model is bounded and
// documented in DESIGN.md §10: every submission is the root of its own
// fully-strict intra-task DAG executed through the deques, so the
// structural lemma and the steal-bound analysis hold per submission; only
// the arrival of roots is new, and it enters through queues (not deques)
// the paper's deque invariants never speak about.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"worksteal/internal/atomicx"
)

// Errors returned by Submit and Handle.Wait.
var (
	// ErrOverloaded reports that every injector shard was full at
	// submission time and Config.Overload is ShedReject: the submission
	// was not enqueued and will never run. Rejection is the backpressure
	// signal — a rejected submission is never silently dropped into a
	// wedged Handle, it simply has no Handle.
	ErrOverloaded = errors.New("sched: injector full: submission rejected")
	// ErrNotServing reports a Submit on a pool with no Serve in flight.
	ErrNotServing = errors.New("sched: pool is not serving (start Pool.Serve first)")
	// ErrStopped is the abort cause for submissions still in flight when
	// Serve's context is cancelled: their Handles complete with this
	// error rather than waiting forever.
	ErrStopped = errors.New("sched: pool stopped serving before the submission completed")
)

// PanicError wraps the panic value of a task that panicked inside a
// submission, surfaced from Handle.Wait. A service caller observes the
// failure as an error; only the batch Run/RunContext API re-panics.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("sched: task panicked: %v", e.Value) }

// OverloadPolicy selects what Submit does when every injector shard is
// full.
type OverloadPolicy uint8

const (
	// ShedReject (the default) makes Submit return ErrOverloaded.
	ShedReject OverloadPolicy = iota
	// ShedCallerRuns executes the submission synchronously on the calling
	// goroutine (depth-first, spawns run inline) — the classic
	// caller-runs backpressure: the submitter pays for its own work, which
	// throttles the arrival rate without dropping anything.
	ShedCallerRuns
)

// Run states, stored in run.state. The state is the atomic gate workers
// read before executing a popped task (execOrDrop): anything other than
// runLive means the submission aborted and the task must be discarded, and
// the state value selects the counter the discard is accounted under
// (runPanicked → Stats.TasksDropped, runCancelled → Stats.TasksCancelled,
// matching the batch API's historical accounting).
const (
	runLive int32 = iota
	runPanicked
	runCancelled
)

// run is the per-submission record: everything that used to live on Pool
// for the one batch run now lives here, one instance per Submit (and one
// per Run/RunContext call). Tasks carry a pointer to their run, so a
// worker executing tasks of interleaved submissions always charges the
// right pending counter and observes the right abort.
type run struct {
	pool *Pool
	// pending counts the root plus every transitively spawned task not
	// yet executed or discarded; the decrement that reaches zero
	// completes the submission. sc: the decrement's result is consumed —
	// exactly one decrementer observes zero, an arbitration.
	pending atomicx.SCInt64
	// state gates execution (see the constants above). It is written
	// inside finishOnce before the abort channel closes, so a worker that
	// observes an aborted state can rely on err/panicVal being set.
	// Publication ordering suffices: readers only gate on the value, no
	// store→load shape involves it.
	state atomicx.Publish32
	// finishOnce arbitrates the submission's single outcome: completion
	// (pending hit zero) or abort (task panic, cancellation, engine
	// failure) — first caller wins, exactly like the old Pool.abortOnce.
	finishOnce sync.Once
	err        error
	panicVal   any
	// abort is closed only when the submission aborts; it unwinds
	// blocked Joins and Group.Waits of this submission (future.go).
	abort chan struct{}
	// finished is closed when the submission ends either way; it is what
	// Handle.Wait and the Run session controller block on.
	finished chan struct{}
	// stopWatch holds the cancel function of a SubmitContext submission's
	// context.AfterFunc watcher; empty otherwise. Stored before the run is
	// published to workers and called inside finishOnce; atomic because
	// the submitter's store races the worker that pops, completes, and
	// finishes the submission in the same instant. sc because the store
	// sits inside the SubmitContext handshake carrier, whose store→load
	// protocol abporder pins to full ordering.
	stopWatch atomicx.SCPointer[func() bool]
}

func newRun(p *Pool) *run {
	r := &run{pool: p, abort: make(chan struct{}), finished: make(chan struct{})}
	r.pending.Store(1) // the root
	return r
}

// complete ends the submission successfully. Called by the worker whose
// pending decrement reached zero; a lost race against an abort is a no-op.
func (r *run) complete() {
	r.finishOnce.Do(func() {
		if f := r.stopWatch.Load(); f != nil {
			(*f)()
		}
		r.pool.unregister(r)
		close(r.finished)
	})
}

// abortWith ends the submission with an abort cause. Whichever of panic,
// cancellation, or engine failure arrives first wins; later calls are
// no-ops, preserving the original cause (the batch API's panic-beats-
// cancel priority falls out of call order, exactly as before).
func (r *run) abortWith(state int32, err error, panicVal any) {
	r.finishOnce.Do(func() {
		if f := r.stopWatch.Load(); f != nil {
			(*f)()
		}
		r.err = err
		r.panicVal = panicVal
		r.state.Store(state)
		r.pool.unregister(r)
		close(r.abort)
		close(r.finished)
	})
}

// Handle is the completion future of one submission.
type Handle struct{ r *run }

// Done returns a channel closed when the submission has ended — every
// task executed, or the submission aborted.
func (h *Handle) Done() <-chan struct{} { return h.r.finished }

// Wait blocks until the submission ends and reports its outcome: nil when
// the root and every transitively spawned task completed; a PanicError
// wrapping the original value if a task panicked; the submission
// context's error if it was cancelled; ErrStopped if the pool stopped
// serving first. Wait is safe to call from any goroutine, repeatedly.
func (h *Handle) Wait() error {
	// The finished-channel receive orders the outcome reads below after
	// the finisher's writes.
	<-h.r.finished
	if v := h.r.panicVal; v != nil {
		return PanicError{Value: v}
	}
	return h.r.err
}

// Err returns the submission outcome without blocking: nil until Done,
// then exactly what Wait reports.
func (h *Handle) Err() error {
	select {
	case <-h.r.finished:
		if v := h.r.panicVal; v != nil {
			return PanicError{Value: v}
		}
		return h.r.err
	default:
		return nil
	}
}

// Serve starts the workers and serves submissions until ctx is cancelled.
// It blocks for the duration of service: callers run it on its own
// goroutine and submit from others. On cancellation, submissions still in
// flight are aborted with ErrStopped (their Handles complete; tasks
// already executing finish, tasks never started are discarded and counted
// in Stats.TasksCancelled), the workers shut down, and Serve returns
// ctx.Err(). After a completed Pool.Drain (drain.go) Serve instead
// returns nil — the graceful shutdown — and the pool may Serve again.
// If a worker loop itself fails (a panic outside any task,
// e.g. an injected fault), every in-flight submission aborts with the
// panic value and Serve re-panics with it, mirroring Run.
//
// A Pool runs one engine at a time: starting Serve while another Serve,
// Run, or RunContext is in flight panics, exactly like overlapping Runs.
func (p *Pool) Serve(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !p.running.CompareAndSwap(false, true) {
		panic("sched: Pool.Serve called concurrently with a run or serve already in flight on this pool (a Pool hosts one engine at a time)")
	}
	defer p.running.Store(false)
	p.startSession(nil)
	// This session's drain-request channel (drain.go), read under the same
	// lock startSession published it under.
	p.runMu.Lock()
	drainReq := p.drainReq
	p.runMu.Unlock()

	stopAux := make(chan struct{})
	var aux sync.WaitGroup
	if p.cfg.StallTimeout > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			p.watchdog(stopAux)
		}()
	}

	// Open for business only after the workers exist; Submit checks this
	// flag before enqueueing.
	p.serving.Store(true)

	var failVal any
	drained := false
	select {
	case <-ctx.Done():
	case <-drainReq:
		// A completed Drain (drain.go): admission is already closed and —
		// unless the drain's deadline expired first — every accepted
		// submission has completed, so the abort sweep below is a no-op on
		// the happy path and exactly the ErrStopped fallback on expiry.
		drained = true
	case <-p.failCh:
		// A worker loop died. failVal is safe to read after the channel
		// close (engineFail writes it first).
		failVal = p.failVal
	}
	p.serving.Store(false)

	// Abort whatever is still in flight. On engine failure engineFail
	// already aborted the registered runs; this sweep also catches
	// submissions that raced the serving flag. First abort wins, so a
	// panic cause recorded earlier is preserved.
	if failVal != nil {
		p.abortAll(runPanicked, nil, failVal)
	} else {
		p.abortAll(runCancelled, ErrStopped, nil)
	}
	p.endSession()
	close(stopAux)
	aux.Wait()
	// Quiescent: every worker has exited, so draining the deques, the
	// injector shards, and the handoff slots is owner-safe. Leftover
	// tasks all belong to aborted submissions; account them by cause.
	p.drainByRun()
	if failVal != nil {
		panic(failVal)
	}
	if drained {
		return nil
	}
	return ctx.Err()
}

// Submit enqueues fn as the root of a new submission and returns its
// Handle. It is callable from any goroutine, including from tasks already
// running on the pool. The returned Handle is nil exactly when the error
// is non-nil: ErrNotServing if no Serve is in flight, ErrOverloaded if
// every injector shard is full under the default ShedReject policy.
func (p *Pool) Submit(fn func(*Worker)) (*Handle, error) {
	return p.SubmitContext(context.Background(), fn)
}

// SubmitContext is Submit with per-submission cancellation: when ctx is
// cancelled, this submission — and only this one — aborts through the
// same plumbing RunContext uses, and its Handle.Wait returns ctx.Err().
// Tasks of the submission already executing finish; tasks not yet started
// are discarded and counted in Stats.TasksCancelled.
//
// The handshake directive makes abplint verify the producer half of the
// injector's Dekker wake protocol end to end: the enqueue (pushInjector's
// reservation CAS, visible to a parking worker's Len re-scan from that
// instant) must dominate the signalWork scan of the parked flags. The
// consumer half is park's existing store=parked load=anyVisibleWork
// contract, whose re-scan now covers the injector shards.
//
//abp:handshake store=pushInjector load=signalWork
func (p *Pool) SubmitContext(ctx context.Context, fn func(*Worker)) (*Handle, error) {
	if !p.serving.Load() {
		return nil, ErrNotServing
	}
	if p.draining.Load() {
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := newRun(p)
	t := &Task{fn: fn, run: r}
	// Arm the cancellation watcher before the task is published: a
	// worker may pop and complete the submission the instant the push
	// lands, and r's fields must be quiescent by then.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			r.abortWith(runCancelled, ctx.Err(), nil)
		})
		r.stopWatch.Store(&stop)
	}
	p.register(r)
	if !p.pushInjector(t) {
		// Every shard full: shed.
		if p.cfg.Overload == ShedCallerRuns {
			p.callerRuns.Add(1)
			p.runOnCaller(t)
			return &Handle{r: r}, nil
		}
		r.abortWith(runCancelled, ErrOverloaded, nil)
		p.rejected.Add(1)
		return nil, ErrOverloaded
	}
	p.submitted.Add(1)
	p.signalWork()
	if p.draining.Load() {
		// A Drain closed admission between the gate above and the push.
		// Its registry snapshot may or may not have seen this run, so the
		// submission must not stand: abort it and report a rejection —
		// never an accepted handle a drain then fails. (If the re-check
		// instead finds no drain, the sc flag order guarantees the drain's
		// snapshot runs after our register and waits for us; see drain.go.)
		// The task carcass is discarded, and counted, at pop or drain time.
		r.abortWith(runCancelled, ErrDraining, nil)
		p.submitted.Add(-1)
		p.rejected.Add(1)
		return nil, ErrDraining
	}
	if !p.serving.Load() {
		// The pool stopped serving between the check above and the push:
		// the shutdown sweep may have missed this run. Abort it so its
		// Handle can never wedge; the task carcass is discarded (and
		// counted) when a later session pops or drains it.
		r.abortWith(runCancelled, ErrStopped, nil)
	}
	return &Handle{r: r}, nil
}

// runOnCaller executes a shed submission synchronously on the submitting
// goroutine: an ephemeral worker whose deque refuses every push makes all
// spawns run inline, so the whole submission executes depth-first to
// completion before Submit returns (its Handle is already Done). The
// ephemeral worker is not in Pool.workers: nothing steals from it and its
// per-task counters are not folded into Stats — Stats.SubmitsCallerRun
// counts the shed submissions themselves.
func (p *Pool) runOnCaller(t *Task) {
	w := &Worker{
		pool: p,
		id:   len(p.workers), // out of the victim range; never steals, never stolen from
		dq:   refuseDeque{},
	}
	w.exec(t)
}

// refuseDeque is the caller-runs worker's deque: capacity zero, so every
// Spawn takes the inline-execution fallback.
type refuseDeque struct{}

func (refuseDeque) PushBottom(*Task) bool { return false }
func (refuseDeque) PopBottom() *Task      { return nil }
func (refuseDeque) PopTop() *Task         { return nil }
func (refuseDeque) Len() int              { return 0 }

// register adds a run to the active set the shutdown/failure paths abort.
func (p *Pool) register(r *run) {
	p.runMu.Lock()
	p.active[r] = struct{}{}
	p.runMu.Unlock()
}

// unregister removes a finished run. Called from finishOnce only. The
// completion that empties the registry while a drain is waiting closes
// the session's drainIdle channel (drain.go), exactly once.
func (p *Pool) unregister(r *run) {
	p.runMu.Lock()
	delete(p.active, r)
	if len(p.active) == 0 && p.draining.Load() && !p.drainSignaled {
		p.drainSignaled = true
		close(p.drainIdle)
	}
	p.runMu.Unlock()
}

// abortAll aborts every registered run with the given cause. The active
// set is snapshotted first so abortWith's unregister does not mutate the
// map mid-iteration.
func (p *Pool) abortAll(state int32, err error, panicVal any) {
	p.runMu.Lock()
	rs := make([]*run, 0, len(p.active))
	for r := range p.active {
		rs = append(rs, r)
	}
	p.runMu.Unlock()
	for _, r := range rs {
		r.abortWith(state, err, panicVal)
	}
}

// engineFail records a worker-loop panic — a failure of the engine, not of
// any one task — aborts every in-flight submission with it, and wakes the
// session controller (Run's waiter or Serve's select). First failure wins.
func (p *Pool) engineFail(v any) {
	p.failOnce.Do(func() {
		p.failVal = v
		close(p.failCh)
	})
	p.abortAll(runPanicked, nil, v)
}
