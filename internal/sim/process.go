package sim

import (
	"fmt"

	"worksteal/internal/dag"
)

// phase identifies where a process is in the Figure 3 scheduling loop.
type phase uint8

const (
	// phCheckDone: about to test the computationDone flag (loop head).
	phCheckDone phase = iota
	// phExecute: about to execute the assigned node (line 6).
	phExecute
	// phPopBottom: a popBottom invocation is in flight (line 8).
	phPopBottom
	// phPush: a pushBottom invocation is in flight (line 12).
	phPush
	// phYield: about to yield and pick a victim (lines 15-16).
	phYield
	// phSteal: a popTop invocation on the victim is in flight (line 17).
	phSteal
	// phHalted: the process observed computationDone and stopped.
	phHalted
)

func (ph phase) String() string {
	switch ph {
	case phCheckDone:
		return "checkDone"
	case phExecute:
		return "execute"
	case phPopBottom:
		return "popBottom"
	case phPush:
		return "push"
	case phYield:
		return "yield"
	case phSteal:
		return "steal"
	case phHalted:
		return "halted"
	default:
		return fmt.Sprintf("phase(%d)", uint8(ph))
	}
}

// process is one of the P processes executing the scheduling loop.
type process struct {
	id       int
	deque    dequeOps
	assigned dag.NodeID
	phase    phase
	cur      op         // in-flight deque operation, when phase is phPopBottom/phPush/phSteal
	next     dag.NodeID // node to assign once the in-flight push completes
	victim   int        // victim of the in-flight steal
	rrVictim int        // round-robin victim cursor (VictimRoundRobin)

	// Per-round milestone count (reset when the process is scheduled in a
	// new round); used for the throw definition.
	msRound int

	// Milestone spacing measurement: the paper's constant C is the largest
	// number of consecutive instructions a process can execute without a
	// milestone; we measure it.
	instrSinceMilestone int
	maxMilestoneGap     int

	// Statistics.
	instr         int64
	nodesExecuted int
	stealAttempts int
	steals        int
	throws        int
	yields        int
}

// step executes exactly one instruction of the process. The engine calls it
// only for scheduled, non-halted processes. The engine is single-threaded,
// so its goroutine is the single owner of every simulated deque; the
// directive puts the simulator's deque traffic under abplint's
// ownerescape/owneronly audit.
//
//abp:owner the single-threaded engine goroutine owns every simulated deque
func (p *process) step(e *Engine) {
	p.instr++
	p.instrSinceMilestone++
	milestone := false
	stealCompleted := false

	switch p.phase {
	case phCheckDone:
		// One instruction: load the computationDone flag.
		if e.done {
			p.phase = phHalted
			e.onHalt(p)
			break
		}
		if p.assigned != dag.None {
			p.phase = phExecute
		} else {
			p.phase = phYield
		}

	case phExecute:
		// One instruction: execute the assigned node. Enabled children are
		// bookkeeping on the dag, performed atomically with the execution
		// (the paper linearizes the execution and the update of the
		// assigned node together).
		milestone = true
		u := p.assigned
		p.assigned = dag.None
		enabled := e.executeNode(p, u)
		switch len(enabled) {
		case 0: // thread died or blocked: pop a new assigned node
			p.cur = p.deque.startPopBottom(p.id)
			p.phase = phPopBottom
		case 1: // no synchronization: continue with the child
			p.assigned = enabled[0]
			p.phase = phCheckDone
		case 2: // enable or spawn: push one child, keep the other
			keep, push := e.chooseChild(u, enabled[0], enabled[1])
			p.next = keep
			p.cur = p.deque.startPushBottom(p.id, push)
			p.phase = phPush
		default:
			panic(fmt.Sprintf("sim: node %d enabled %d children", u, len(enabled)))
		}

	case phPopBottom:
		if p.cur.step() {
			p.assigned = p.cur.result()
			p.cur = nil
			p.phase = phCheckDone
		}

	case phPush:
		if p.cur.step() {
			p.assigned = p.next
			p.next = dag.None
			p.cur = nil
			p.phase = phCheckDone
		}

	case phYield:
		// One instruction: the yield system call (line 15) plus the local
		// random victim selection (line 16). With YieldNone this is just
		// the victim selection.
		e.applyYield(p)
		p.victim = e.pickVictim(p)
		p.cur = e.procs[p.victim].deque.startPopTop(p.id)
		p.phase = phSteal

	case phSteal:
		if p.cur.step() {
			// The completion of a popTop invocation is a milestone.
			milestone = true
			stealCompleted = true
			p.stealAttempts++
			if res := p.cur.result(); res != dag.None {
				p.steals++
				p.assigned = res
			}
			p.cur = nil
			p.phase = phCheckDone
		}

	case phHalted:
		panic("sim: halted process stepped")
	}

	if milestone {
		if p.instrSinceMilestone > p.maxMilestoneGap {
			p.maxMilestoneGap = p.instrSinceMilestone
		}
		p.instrSinceMilestone = 0
		p.msRound++
		if stealCompleted && p.msRound == 2 {
			// A steal attempt completing at the process's second milestone
			// in a round is a throw (Section 4.1).
			p.throws++
		}
	}
}

// busyWithDeque reports whether the process has a deque operation in flight
// on its own deque, making the deque's snapshot transiently inconsistent.
func (p *process) busyWithDeque() bool {
	return p.phase == phPopBottom || p.phase == phPush
}
