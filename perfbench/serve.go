package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"worksteal/internal/sched"
)

// Each submission is a root that spawns kids children through a Group,
// each spinning spins xorshift steps (about 5µs at 2000): a request with
// a little fan-out, so Submit, the injector, wake/park and Handle
// completion carry the load while forks stay few.
type opSpec struct{ kids, spins int32 }

// opRec is one submission's record; children count themselves in ran,
// which the checker compares with kids after Wait.
type opRec struct {
	spec opSpec
	ran  atomic.Int32
}

const opTableLen = 4096

// resolveGrace is how long after its window's deadline every accepted
// submission has to resolve. One that has not is counted as failed, so a
// scheduler that loses a submission fails the run instead of hanging it.
var resolveGrace = 3 * time.Second

// serve is the Serve session both serve workloads drive.
type serve struct {
	b        *bench
	p        *sched.Pool
	cancel   context.CancelFunc
	done     chan error
	table    []opSpec
	seq      atomic.Uint32
	serialAt int // where the next serial pass starts in table

	// release holds back the submission --stall blocks; it is closed
	// once that submission has been counted as lost, and at teardown.
	release     chan struct{}
	releaseOnce sync.Once
}

// expiry returns a channel that closes resolveGrace after deadline, and
// the function that stops its timer.
func expiry(deadline time.Time) (<-chan struct{}, func() bool) {
	ch := make(chan struct{})
	t := time.AfterFunc(time.Until(deadline)+resolveGrace, func() { close(ch) })
	return ch, t.Stop
}

// resolve waits for h until expired closes. It reports whether h resolved,
// and its outcome; a handle that resolved in time is never reported lost,
// even when both channels are ready.
func (s *serve) resolve(h *sched.Handle, expired <-chan struct{}) (bool, error) {
	select {
	case <-h.Done():
	case <-expired:
		select {
		case <-h.Done():
		default:
			s.releaseOnce.Do(func() { close(s.release) })
			return false, nil
		}
	}
	return true, h.Wait()
}

// submit submits fn, held back until release closes when --stall picks
// this submission.
func (s *serve) submit(fn func(*sched.Worker)) (*sched.Handle, error) {
	if s.b.stallOnce() {
		inner := fn
		fn = func(w *sched.Worker) {
			<-s.release
			inner(w)
		}
	}
	return s.p.Submit(fn)
}

func (s *serve) setup() {
	s.table = make([]opSpec, opTableLen)
	for i := range s.table {
		s.table[i] = opSpec{kids: int32(2 + s.b.rng.Intn(5)), spins: int32(1000 + s.b.rng.Intn(2001))}
	}
	s.p = sched.New(sched.Config{Workers: s.b.workers, Seed: s.b.seed})
	s.release = make(chan struct{})
	s.releaseOnce = sync.Once{}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- s.p.Serve(ctx) }()
	for {
		h, err := s.p.Submit(func(*sched.Worker) {})
		if err == nil {
			expired, stop := expiry(time.Now())
			ok, err := s.resolve(h, expired)
			stop()
			if err != nil || !ok {
				panic(fmt.Sprintf("perfbench: first submission: %v (resolved %v)", err, ok))
			}
			break
		}
		if !errors.Is(err, sched.ErrNotServing) {
			panic(fmt.Sprintf("perfbench: first submission: %v", err))
		}
		time.Sleep(50 * time.Microsecond)
	}
	w := s.closedWindow(time.Minute, 10000, nil)
	if w.failed > 0 {
		panic(fmt.Sprintf("perfbench: serve warm-up computed %d wrong results", w.failed))
	}
}

func (s *serve) teardown() {
	s.releaseOnce.Do(func() { close(s.release) })
	s.cancel()
	if err := <-s.done; !errors.Is(err, context.Canceled) {
		panic(fmt.Sprintf("perfbench: Serve returned %v", err))
	}
}

// serialPass runs the child work of the next serialOps table entries on
// the calling goroutine and returns its time per op in µs: the serial
// baseline of a submission, measured in every window so that it drifts
// with the machine exactly as the window does.
func (s *serve) serialPass() float64 {
	const serialOps = 256
	t0 := time.Now()
	for i := 0; i < serialOps; i++ {
		op := s.table[(s.serialAt+i)%opTableLen]
		for k := int32(0); k < op.kids; k++ {
			spin(int(op.spins))
		}
	}
	s.serialAt = (s.serialAt + serialOps) % opTableLen
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / serialOps
}

// next returns the record for the next submission and its op id.
func (s *serve) next(rec *opRec) uint32 {
	op := s.seq.Add(1)
	rec.spec = s.table[op%opTableLen]
	rec.ran.Store(0)
	return op
}

// root builds a submission's root task. sub is its Submit span.
func root(rec *opRec, tr *tracer, op uint32, sub int32) func(*sched.Worker) {
	return func(w *sched.Worker) {
		r := tr.begin(spRoot, w.ID(), op, sub)
		g := sched.NewGroup()
		if tr == nil {
			child := func(*sched.Worker) {
				spin(int(rec.spec.spins))
				rec.ran.Add(1)
			}
			for k := int32(0); k < rec.spec.kids; k++ {
				g.Spawn(w, child)
			}
			g.Wait(w)
			return
		}
		for k := int32(0); k < rec.spec.kids; k++ {
			sp := tr.begin(spSpawn, w.ID(), op, r)
			g.Spawn(w, func(w *sched.Worker) {
				c := tr.begin(spChild, w.ID(), op, sp)
				spin(int(rec.spec.spins))
				rec.ran.Add(1)
				tr.end(c)
			})
			tr.end(sp)
		}
		gw := tr.begin(spGWait, w.ID(), op, r)
		g.Wait(w)
		tr.end(gw)
		tr.end(r)
	}
}

// checked reports whether a resolved submission ran exactly its children.
func (s *serve) checked(rec *opRec, err error) bool {
	if s.b.corruptOnce() {
		rec.ran.Add(1)
	}
	return err == nil && rec.ran.Load() == rec.spec.kids
}

// closedWindow runs the closed loop: each client submits, waits, and
// submits again, until d passes or it has made limit ops (0: no limit).
// Latency runs from the Submit call to the Wait return. A client whose
// submission does not resolve within resolveGrace of the deadline counts
// it as failed and stops.
func (s *serve) closedWindow(d time.Duration, limit int, tr *tracer) *sample {
	out := &sample{}
	parts := make([]sample, s.b.clients)
	var wg sync.WaitGroup
	st0 := s.p.Stats()
	c0 := cpuNanos()
	t0 := time.Now()
	deadline := t0.Add(d)
	expired, stop := expiry(deadline)
	defer stop()
	for c := range parts {
		wg.Add(1)
		go func(part *sample, lane int) {
			defer wg.Done()
			var rec opRec
			for n := 0; (limit == 0 || n < limit) && !tr.nearlyFull() && time.Now().Before(deadline); n++ {
				op := s.next(&rec)
				start := time.Now()
				ss := tr.begin(spSubmit, lane, op, -1)
				h, err := s.submit(root(&rec, tr, op, ss))
				tr.end(ss)
				part.attempted++
				if err != nil {
					tr.rename(ss, spReject)
					part.failed++
					continue
				}
				ws := tr.begin(spWait, lane, op, ss)
				resolved, err := s.resolve(h, expired)
				tr.end(ws)
				lat := time.Since(start)
				if !resolved {
					part.failed++
					return
				}
				if !s.checked(&rec, err) {
					part.failed++
					continue
				}
				part.ops++
				part.lat = append(part.lat, float64(lat.Nanoseconds())/1e3)
			}
		}(&parts[c], s.b.workers+c)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	out.cpuNs = cpuNanos() - c0
	out.stats = statsDelta(st0, s.p.Stats())
	for i := range parts {
		out.ops += parts[i].ops
		out.attempted += parts[i].attempted
		out.failed += parts[i].failed
		out.lat = append(out.lat, parts[i].lat...)
	}
	out.cpuOps, out.allocOps, out.statOps = out.ops, out.ops, out.ops
	return out
}

// finishServe reports the serve workloads' work overhead and speedup
// against the serial time of the same child work, each the median over
// windows of a ratio paired within the window: CPU per completed op over
// its serial time, and completed ops per second times serial time (how
// many cores' worth of useful work the pool delivers).
func finishServe(m map[string]float64, kept []*sample) {
	var oh, sp []float64
	for _, s := range untraced(kept) {
		oh = append(oh, ratio(float64(s.cpuNs)/1e3, float64(s.cpuOps)*s.serialUs))
		sp = append(sp, s.opsPerS()*s.serialUs/1e6)
	}
	m["work_overhead"] = median(oh)
	m["speedup"] = median(sp)
}

type serveClosed struct{ serve }

func newServeClosed(b *bench) workload { return &serveClosed{serve{b: b}} }

func (s *serveClosed) window(d time.Duration, tr *tracer) *sample {
	serial := s.serialPass()
	out := s.closedWindow(d, 0, tr)
	out.serialUs = serial
	return out
}

func (s *serveClosed) finish(m map[string]float64, kept []*sample) { finishServe(m, kept) }

func (s *serve) forkAllocs() float64 {
	return allocsPerFork(func(w *sched.Worker) {
		g := sched.NewGroup()
		g.Spawn(w, func(*sched.Worker) {})
		g.Wait(w)
	})
}

// The open loop offers a fixed 280k submissions/s, about four times the
// closed-loop capacity of two workers on the reference host, in 1 ms
// ticks with Poisson-distributed counts. A late generator sends the
// missed ticks at once (catch-up) rather than skipping them.
const (
	offeredPerS = 280000
	tick        = time.Millisecond
)

type serveOverload struct {
	serve
	recs []opRec
}

func newServeOverload(b *bench) workload { return &serveOverload{serve: serve{b: b}} }

func (s *serveOverload) finish(m map[string]float64, kept []*sample) { finishServe(m, kept) }

// pending is an accepted submission on its way to the collector.
type pending struct {
	h   *sched.Handle
	rec *opRec
	due time.Time
	op  uint32
	sub int32 // Submit span
}

// poissonTicks draws the number of arrivals in each tick from
// exponential gaps at the offered rate.
func (s *serveOverload) poissonTicks(n int) []int {
	counts := make([]int, n)
	perTick := float64(offeredPerS) * tick.Seconds()
	at := s.b.rng.ExpFloat64() / perTick
	for k := range counts {
		for at < float64(k+1) {
			counts[k]++
			at += s.b.rng.ExpFloat64() / perTick
		}
	}
	return counts
}

func (s *serveOverload) window(d time.Duration, tr *tracer) *sample {
	out := &sample{serialUs: s.serialPass()}
	ticks := max(1, int(d/tick))
	counts := s.poissonTicks(ticks)
	total := 0
	for _, c := range counts {
		total += c
	}
	if len(s.recs) < total {
		s.recs = make([]opRec, total+total/4)
	}
	out.gen.target = offeredPerS

	// Sized so the generator never blocks on the collector: accepted
	// submissions are bounded by the injector plus what completes.
	// Every accepted submission has to resolve within resolveGrace of
	// the last tick; the collector counts one that has not as failed and
	// every one after it that is still pending.
	ch := make(chan pending, 1<<16)
	expired, stop := expiry(time.Now().Add(time.Duration(ticks) * tick))
	defer stop()
	var lat []float64
	var collected, collectFailed int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range ch {
			ws := tr.begin(spWait, s.b.workers+1, p.op, p.sub)
			resolved, err := s.resolve(p.h, expired)
			tr.end(ws)
			if !resolved || !s.checked(p.rec, err) {
				collectFailed++
				continue
			}
			collected++
			lat = append(lat, float64(time.Since(p.due).Nanoseconds())/1e3)
		}
	}()

	c0 := cpuNanos()
	st0 := s.p.Stats()
	t0 := time.Now()
	lane := s.b.workers
	var refused, failed int64
	i := 0
	for k, n := range counts {
		due := t0.Add(time.Duration(k) * tick)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		for j := 0; j < n; j++ {
			rec := &s.recs[i]
			i++
			op := s.next(rec)
			out.gen.lateness.add(time.Since(due).Nanoseconds())
			ss := tr.begin(spSubmit, lane, op, -1)
			h, err := s.submit(root(rec, tr, op, ss))
			tr.end(ss)
			switch {
			case err == nil:
				ch <- pending{h, rec, due, op, ss}
			case errors.Is(err, sched.ErrOverloaded):
				tr.rename(ss, spReject)
				refused++
			default:
				failed++
			}
		}
	}
	out.gen.wall = max(time.Since(t0), time.Duration(ticks)*tick)
	out.gen.offered = int64(i)
	close(ch)
	wg.Wait()
	out.wall = time.Since(t0)
	out.cpuNs = cpuNanos() - c0
	out.stats = statsDelta(st0, s.p.Stats())

	out.ops = collected
	out.refused = refused
	out.attempted = int64(total)
	out.failed = failed + collectFailed
	out.lat = lat
	// Allocations are charged per offered submission: a refused one
	// allocates too, and the refusal share moves with goodput.
	out.cpuOps, out.allocOps, out.statOps = out.ops, out.attempted, out.ops
	return out
}
