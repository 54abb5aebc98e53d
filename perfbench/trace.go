package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// spanName names the layer boundary a span was recorded at. Every span is
// recorded by this benchmark around a call into the program's public API,
// or by a task body stamping its own start and end; the program itself is
// not instrumented.
type spanName uint8

const (
	spRun    spanName = iota // Pool.Run call, on the calling goroutine
	spRoot                   // root task body, on a worker
	spFork                   // sched.Fork call
	spJoin                   // Future.Join call
	spChild                  // forked or Group-spawned task body
	spSpawn                  // Group.Spawn call
	spGWait                  // Group.Wait call
	spSubmit                 // accepted Pool.Submit call
	spReject                 // refused Pool.Submit call
	spWait                   // Handle.Wait call
	spGraph                  // sched.RunGraph call
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"Pool.Run", "root", "Fork", "Join", "child", "Group.Spawn", "Group.Wait",
	"Pool.Submit", "Pool.Submit.refused", "Handle.Wait", "RunGraph",
}

// span is one recorded interval. parent is the index of the span that
// caused it: the enclosing call for a call span, the Fork, Group.Spawn,
// Submit or Run span for a task body. Spans of one operation share op.
// lane is the goroutine that recorded it: the worker ID for task bodies,
// a fixed lane per load goroutine otherwise.
type span struct {
	start, end int64 // ns since the tracer's base
	parent     int32
	op         uint32
	lane       uint16
	name       spanName
}

// tracer records spans into a preallocated buffer; a nil *tracer records
// nothing, so traced and untraced runs share their code. Spans are folded
// into layerAgg whenever the workload is quiescent, which bounds memory
// however long the run.
type tracer struct {
	base  time.Time
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(name spanName, lane int, op uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.base)), parent: parent, op: op, lane: uint16(lane), name: name}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = int64(time.Since(t.base))
	}
}

// rename relabels a span after the fact (a Submit that was refused).
func (t *tracer) rename(id int32, name spanName) {
	if id >= 0 {
		t.spans[id].name = name
	}
}

// nearlyFull tells a traced window to end before spans start to drop.
func (t *tracer) nearlyFull() bool {
	return t != nil && t.n.Load() >= int64(len(t.spans))*7/8
}

// recorded returns the spans recorded since the last reset.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

func (t *tracer) reset() { t.n.Store(0) }

// layerAgg accumulates what the traced windows show per layer.
type layerAgg struct {
	count     [nSpanNames]int64
	dur, self [nSpanNames]hist
	selfTotal [nSpanNames]int64
	dropped   int64

	children, stolen int64
	stolenStart      hist // Fork/Spawn call start -> stolen child start
	sessStart        hist // Run call start -> root start
	sessEnd          hist // root end -> Run return
	queueWait        hist // Submit return -> root start
	notify           hist // root end -> Wait return

	kept []span // the first spans, written out as the span file
}

const keptSpans = 20000

// fold adds one quiescent batch of spans to the aggregate.
func (a *layerAgg) fold(t *tracer) {
	spans := t.recorded()
	a.dropped += t.n.Load() - int64(len(spans))
	if a.kept == nil {
		// Parent indices are batch-local, so the file keeps one batch.
		a.kept = slices.Clone(spans[:min(len(spans), keptSpans)])
	}

	// Self time: on each lane, spans nest; a span's self time is its
	// duration minus that of the spans directly nested in it.
	covered := make([]int64, len(spans))
	byLane := make(map[uint16][]int32)
	for i := range spans {
		if spans[i].end >= spans[i].start {
			byLane[spans[i].lane] = append(byLane[spans[i].lane], int32(i))
		}
	}
	for _, idx := range byLane {
		slices.SortFunc(idx, func(x, y int32) int {
			sx, sy := &spans[x], &spans[y]
			if sx.start != sy.start {
				return cmpInt64(sx.start, sy.start)
			}
			return cmpInt64(sy.end, sx.end) // enclosing span first
		})
		var stack []int32
		for _, i := range idx {
			s := &spans[i]
			for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				covered[stack[len(stack)-1]] += s.end - s.start
			}
			stack = append(stack, i)
		}
	}

	rootOf := make(map[int32]int32) // Submit span -> root span
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			continue
		}
		d := s.end - s.start
		a.count[s.name]++
		a.dur[s.name].add(d)
		a.self[s.name].add(d - covered[i])
		a.selfTotal[s.name] += d - covered[i]
		if s.parent < 0 {
			continue
		}
		p := &spans[s.parent]
		switch s.name {
		case spChild:
			a.children++
			if s.lane != p.lane {
				a.stolen++
				a.stolenStart.add(s.start - p.start)
			}
		case spRoot:
			switch p.name {
			case spRun:
				a.sessStart.add(s.start - p.start)
				a.sessEnd.add(p.end - s.end)
			case spSubmit:
				a.queueWait.add(s.start - p.end)
				rootOf[s.parent] = int32(i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name != spWait || s.parent < 0 || s.end < s.start {
			continue
		}
		if r, ok := rootOf[s.parent]; ok {
			a.notify.add(s.end - spans[r].end)
		}
	}
	t.reset()
}

func cmpInt64(x, y int64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// writeSummary prints the per-layer table: counts per traced operation,
// and duration and self time percentiles in microseconds.
func (a *layerAgg) writeSummary(w io.Writer, ops int64) {
	fmt.Fprintf(w, "%-20s %10s %9s %9s %9s %9s %9s %9s %9s %11s\n",
		"span", "count", "per_op", "dur_p50", "dur_p90", "dur_p99", "self_p50", "self_p90", "self_p99", "self_us/op")
	for n := spanName(0); n < nSpanNames; n++ {
		if a.count[n] == 0 {
			continue
		}
		d, s := &a.dur[n], &a.self[n]
		fmt.Fprintf(w, "%-20s %10d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %11.3f\n",
			spanNames[n], a.count[n], ratio(float64(a.count[n]), float64(ops)),
			d.quantile(0.5)/1e3, d.quantile(0.9)/1e3, d.quantile(0.99)/1e3,
			s.quantile(0.5)/1e3, s.quantile(0.9)/1e3, s.quantile(0.99)/1e3,
			ratio(float64(a.selfTotal[n]), float64(ops))/1e3)
	}
	if a.dropped > 0 {
		fmt.Fprintf(w, "dropped spans: %d\n", a.dropped)
	}
}

// writeSpans writes the kept spans as CSV, one span per line.
func (a *layerAgg) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,name,op,parent,lane,start_ns,end_ns")
	for i, s := range a.kept {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d\n", i, spanNames[s.name], s.op, s.parent, s.lane, s.start, s.end)
	}
	return bw.Flush()
}
