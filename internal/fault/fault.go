// Package fault is a zero-dependency failpoint framework for the chaos
// experiments: named injection points compiled into the hot paths of the
// ABP/Chase-Lev deques and the scheduler's worker lifecycle, where a test
// (or cmd/abpbench -experiment chaos) can arm delays, yields, panics, or
// indefinite suspensions.
//
// The point of the exercise is the paper's central systems claim (§1, §3.2,
// §6): the deque is *non-blocking*, so a process stalled by the kernel at
// any instruction — even between loading age and issuing the CAS inside
// popTop — cannot prevent any other process from completing its own
// operation. The instruction-level simulator (package sim) proves this in a
// synchronous model; the fault layer is the instrument that demonstrates it
// dynamically on the native pool, by freezing a real goroutine at a real
// instruction boundary and watching the others finish the computation
// (internal/sched's chaos tests, DESIGN.md §9, the native mirror of
// experiment E8).
//
// # Fast path
//
// A disabled failpoint must be free enough to leave compiled into
// production hot paths. Point's fast path is a single atomic load of a
// package-level counter of armed rules: when zero (the steady state) it
// returns immediately, with no map lookup, no allocation, and no lock. The
// overhead gate in overhead_test.go (run by CI's chaos job) asserts this
// stays in the low-nanosecond range; the deque microbenchmarks
// (BenchmarkDequePushPopBottom) bound the end-to-end effect.
//
// # Armed semantics
//
// Arming a point deliberately suspends the non-blocking property — that is
// the experiment, not a bug: an armed Point may sleep, panic, or block
// until Resume. The abplint nonblocking analyzer therefore permits exactly
// the Point call (the disabled fast path) inside //abp:nonblocking
// functions and flags every other use of this package there.
//
// Trigger decisions are made under the registry lock with a rand.Rand
// seeded from Rule.Seed, so given the same sequence of hits a rule fires
// deterministically. (The interleaving of *which* goroutine hits a point
// when remains up to the Go scheduler — determinism is per hit sequence,
// matching the paper's any-adversary stance.)
package fault

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Action selects what an armed point does when its trigger fires.
type Action uint8

const (
	// ActionDelay sleeps for Rule.Delay, modeling a preemption that ends.
	ActionDelay Action = iota
	// ActionYield calls runtime.Gosched, the smallest possible stall.
	ActionYield
	// ActionPanic panics with an InjectedPanic, for crash-path testing.
	ActionPanic
	// ActionSuspend blocks the goroutine until Resume (or Reset) releases
	// it — the adversarial kernel that stops a process indefinitely.
	ActionSuspend
)

// String returns the spec-syntax name of the action.
func (a Action) String() string {
	switch a {
	case ActionDelay:
		return "delay"
	case ActionYield:
		return "yield"
	case ActionPanic:
		return "panic"
	case ActionSuspend:
		return "suspend"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// InjectedPanic is the value ActionPanic panics with, so tests and recover
// paths can distinguish injected crashes from real ones.
type InjectedPanic struct{ Point string }

func (e InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic at %s", e.Point)
}

// Rule arms one injection point. The zero trigger fields mean "fire on
// every hit"; OneShot, Times, EveryNth and Prob restrict that:
//
//   - OneShot is shorthand for Times=1.
//   - Times > 0 fires only the first Times eligible hits.
//   - EveryNth > 0 makes only every nth hit eligible (1st, n+1th, ...).
//   - Prob in (0,1] makes each hit eligible with that probability, drawn
//     from a rand.Rand seeded with Seed (deterministic per hit sequence).
//
// EveryNth and Prob compose (both must pass); Times then caps the total.
type Rule struct {
	Action Action
	// Delay is the sleep for ActionDelay (default 100µs).
	Delay time.Duration
	// Triggers; see the struct comment.
	OneShot  bool
	Times    int
	EveryNth int
	Prob     float64
	// Seed seeds the probability draw; 0 means a fixed default.
	Seed int64
}

// rule is the armed state behind one point name.
type rule struct {
	cfg       Rule
	hits      int64
	fired     int64
	rng       *rand.Rand
	suspended int
	resume    chan struct{} // closed by Resume/Reset; receive = released
	resumed   bool
}

var (
	// armed counts armed rules. Point's disabled fast path is one atomic
	// load of this counter; everything else lives behind mu.
	armed atomic.Int32

	mu      sync.Mutex
	rules   = map[string]*rule{}
	catalog = map[string]string{} // point name -> description (Register)
)

// Point is an injection site. Instrumented code calls it with a constant
// name; when no rule is armed anywhere it is a single atomic load and a
// predicted branch. When a rule armed for name fires, Point performs the
// rule's action — which may sleep, panic, or block until Resume.
//
//abp:nonblocking
func Point(name string) {
	if armed.Load() == 0 {
		return
	}
	slowPoint(name)
}

// slowPoint is the armed path: consult the registry, decide the trigger,
// perform the action.
func slowPoint(name string) {
	mu.Lock()
	r := rules[name]
	if r == nil {
		mu.Unlock()
		return
	}
	r.hits++
	if !r.eligible() {
		mu.Unlock()
		return
	}
	r.fired++
	cfg := r.cfg
	switch cfg.Action {
	case ActionSuspend:
		r.suspended++
		resume := r.resume
		mu.Unlock()
		<-resume
		mu.Lock()
		r.suspended--
		mu.Unlock()
		return
	}
	mu.Unlock()
	switch cfg.Action {
	case ActionDelay:
		d := cfg.Delay
		if d == 0 {
			d = 100 * time.Microsecond
		}
		time.Sleep(d)
	case ActionYield:
		runtime.Gosched()
	case ActionPanic:
		panic(InjectedPanic{Point: name})
	}
}

// eligible applies the trigger to the current hit. Caller holds mu.
func (r *rule) eligible() bool {
	times := r.cfg.Times
	if r.cfg.OneShot && times == 0 {
		times = 1
	}
	if times > 0 && r.fired >= int64(times) {
		return false
	}
	if n := r.cfg.EveryNth; n > 0 && (r.hits-1)%int64(n) != 0 {
		return false
	}
	if p := r.cfg.Prob; p > 0 && r.rng.Float64() >= p {
		return false
	}
	return true
}

// Enable arms name with r, replacing any existing rule (and releasing any
// goroutines suspended under the old one, so re-arming cannot strand them).
func Enable(name string, r Rule) {
	if r.Prob < 0 || r.Prob > 1 {
		panic(fmt.Sprintf("fault: probability %v out of [0,1]", r.Prob))
	}
	seed := r.Seed
	if seed == 0 {
		seed = 0xFA17
	}
	mu.Lock()
	defer mu.Unlock()
	if old := rules[name]; old != nil {
		old.release()
	} else {
		armed.Add(1)
	}
	rules[name] = &rule{
		cfg:    r,
		rng:    rand.New(rand.NewSource(seed)),
		resume: make(chan struct{}),
	}
}

// Disable disarms name, releasing any goroutines suspended there. Unknown
// names are a no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[name]; r != nil {
		r.release()
		delete(rules, name)
		armed.Add(-1)
	}
}

// Resume releases every goroutine currently (and subsequently) suspended
// at name. The rule stays armed but further suspend fires pass through
// immediately; re-arm with Enable for a fresh suspension window.
func Resume(name string) {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[name]; r != nil {
		r.release()
	}
}

// release closes the resume channel once. Caller holds mu.
func (r *rule) release() {
	if !r.resumed {
		r.resumed = true
		close(r.resume)
	}
}

// Reset disarms every point and releases every suspended goroutine. Tests
// arm points and defer Reset so a failing assertion cannot strand a
// suspended worker (and with it the whole pool) into the next test.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for name, r := range rules {
		r.release()
		delete(rules, name)
	}
	armed.Store(0)
}

// Suspended reports how many goroutines are currently blocked at name.
// Chaos tests poll it to know the adversary has actually frozen its victim
// before asserting that everyone else still makes progress.
func Suspended(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[name]; r != nil {
		return r.suspended
	}
	return 0
}

// Hits reports how many times an armed name has been reached (disabled
// points count nothing — the fast path is deliberately blind).
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[name]; r != nil {
		return r.hits
	}
	return 0
}

// Fired reports how many times name's trigger has fired.
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[name]; r != nil {
		return r.fired
	}
	return 0
}

// Register records a compiled-in point in the catalog and returns its name,
// so instrumented packages declare their points as
//
//	var fpPopTopBeforeCAS = fault.Register("deque.popTop.beforeCAS", "...")
//
// and the catalog doubles as the authoritative point inventory
// (cmd/abpbench -experiment chaos prints it; DESIGN.md §9 documents it).
func Register(name, desc string) string {
	mu.Lock()
	defer mu.Unlock()
	catalog[name] = desc
	return name
}

// A PointInfo describes one registered injection point.
type PointInfo struct {
	Name string
	Desc string
}

// Catalog returns every registered point, sorted by name.
func Catalog() []PointInfo {
	mu.Lock()
	defer mu.Unlock()
	out := make([]PointInfo, 0, len(catalog))
	for name, desc := range catalog {
		out = append(out, PointInfo{Name: name, Desc: desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
