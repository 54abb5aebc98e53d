// Package atomicx provides ordering-annotated atomic wrappers: every type
// names the weakest memory-ordering discipline its clients may rely on,
// so a shared field's declaration states the synchronization role it plays
// and the abporder analyzer (internal/lint) can cross-check that role
// against the happens-before edges the code actually needs.
//
// The three disciplines mirror the needs of the paper's deque (Arora,
// Blumofe, Plaxton, "Thread Scheduling for Multiprogrammed
// Multiprocessors", Section 3.2):
//
//   - SC (sequentially consistent): the operation arbitrates between
//     processes — a CAS like the age word's tag/top update, or one side of
//     a Dekker store→load handshake (store own flag, load the other's)
//     where neither store may pass the opposing load. Nothing weaker is
//     sound.
//   - Publish (release/acquire): a single logical event made visible to
//     readers — a flag flip, a counter a monitor samples, a pointer to an
//     initialized structure. The write releases what preceded it, the read
//     acquires it; no cross-variable store/load ordering is promised.
//   - Plain: no concurrent access at all — every conflicting pair is
//     ordered by fork/join or other real happens-before edges. The type
//     exists so the discipline is declared and auditable, not implied.
//
// Go's sync/atomic exposes only sequentially consistent operations, so SC
// and Publish compile to identical instructions today: the distinction is
// declarative, kept honest by abporder, and ready for a future runtime
// with weaker orderings. There are no relaxed accessors: an atomic load
// is already a plain MOV on amd64, and the owner's reads of its own words
// measured no faster as plain loads, so every access takes the one
// sequentially consistent path.
//
// Every method is small enough for the inliner (verified by the package
// test), so declaring a discipline costs nothing over raw sync/atomic.
// Like sync/atomic's own types, the word-sized wrappers must be 64-bit
// aligned on 32-bit platforms; embedding them first in a struct or in a
// slice of wrappers (as the deques do) satisfies this everywhere the
// repository targets.
package atomicx

import (
	"sync/atomic"
	"unsafe"
)

// CacheLineSize is the coherence granule the layout discipline assumes:
// 64 bytes on every architecture this repository targets (x86-64, and
// arm64 server cores; Apple M-series L2 lines are 128B, for which one
// line of slack is an accepted approximation). The abplayout analyzer
// and the layout pin tests both derive from this one constant.
const CacheLineSize = 64

// CacheLinePad is a full cache line of padding. Declared between two
// struct fields it guarantees they can never share a line — the two
// fields end up at least CacheLineSize bytes apart regardless of their
// own sizes or alignment — which is a stronger and simpler invariant
// than a hand-counted `_ [56]byte` complement that silently stops
// isolating when a neighbor changes size. abplayout treats a blank
// CacheLinePad (or any blank pad of at least CacheLineSize bytes) as an
// always-valid separator and flags smaller hand-counted pads whose
// arithmetic has gone stale.
type CacheLinePad struct{ _ [CacheLineSize]byte }

// SCUint32 is a sequentially consistent uint32 (e.g. the ABP deque's bot
// index: its store→load ordering against the age word is load-bearing).
type SCUint32 struct{ v uint32 }

// Load atomically loads the value.
func (x *SCUint32) Load() uint32 { return atomic.LoadUint32(&x.v) }

// Store atomically stores v.
func (x *SCUint32) Store(v uint32) { atomic.StoreUint32(&x.v, v) }

// Add atomically adds delta and returns the new value.
func (x *SCUint32) Add(delta uint32) uint32 { return atomic.AddUint32(&x.v, delta) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCUint32) CompareAndSwap(old, new uint32) bool {
	return atomic.CompareAndSwapUint32(&x.v, old, new)
}

// SCUint64 is a sequentially consistent uint64 (e.g. the ABP age word and
// the injector's CAS-arbitrated positions).
type SCUint64 struct{ v uint64 }

// Load atomically loads the value.
func (x *SCUint64) Load() uint64 { return atomic.LoadUint64(&x.v) }

// Store atomically stores v.
func (x *SCUint64) Store(v uint64) { atomic.StoreUint64(&x.v, v) }

// Add atomically adds delta and returns the new value.
func (x *SCUint64) Add(delta uint64) uint64 { return atomic.AddUint64(&x.v, delta) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCUint64) CompareAndSwap(old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&x.v, old, new)
}

// SCInt32 is a sequentially consistent int32 (e.g. the pool's idle count,
// whose publication the park/signal Dekker argument reads).
type SCInt32 struct{ v int32 }

// Load atomically loads the value.
func (x *SCInt32) Load() int32 { return atomic.LoadInt32(&x.v) }

// Store atomically stores v.
func (x *SCInt32) Store(v int32) { atomic.StoreInt32(&x.v, v) }

// Add atomically adds delta and returns the new value.
func (x *SCInt32) Add(delta int32) int32 { return atomic.AddInt32(&x.v, delta) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCInt32) CompareAndSwap(old, new int32) bool {
	return atomic.CompareAndSwapInt32(&x.v, old, new)
}

// SCInt64 is a sequentially consistent int64 (e.g. RMW join counters that
// arbitrate "last decrementer acts").
type SCInt64 struct{ v int64 }

// Load atomically loads the value.
func (x *SCInt64) Load() int64 { return atomic.LoadInt64(&x.v) }

// Store atomically stores v.
func (x *SCInt64) Store(v int64) { atomic.StoreInt64(&x.v, v) }

// Add atomically adds delta and returns the new value.
func (x *SCInt64) Add(delta int64) int64 { return atomic.AddInt64(&x.v, delta) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCInt64) CompareAndSwap(old, new int64) bool {
	return atomic.CompareAndSwapInt64(&x.v, old, new)
}

// SCBool is a sequentially consistent bool (e.g. the parked flag: its
// store must not pass the work re-scan that follows it).
type SCBool struct{ v uint32 }

// Load atomically loads the value.
func (x *SCBool) Load() bool { return atomic.LoadUint32(&x.v) != 0 }

// Store atomically stores v.
func (x *SCBool) Store(v bool) { atomic.StoreUint32(&x.v, b32(v)) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCBool) CompareAndSwap(old, new bool) bool {
	return atomic.CompareAndSwapUint32(&x.v, b32(old), b32(new))
}

func b32(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// SCPointer is a sequentially consistent typed pointer (e.g. deque cells,
// whose steal-side read is ordered inside the age-CAS arbitration window).
type SCPointer[T any] struct{ p ptr[T] }

// Load atomically loads the pointer.
func (x *SCPointer[T]) Load() *T { return x.p.load() }

// Store atomically stores v.
func (x *SCPointer[T]) Store(v *T) { x.p.store(v) }

// Swap atomically stores v and returns the previous value.
func (x *SCPointer[T]) Swap(v *T) *T { return x.p.swap(v) }

// CompareAndSwap executes the compare-and-swap operation.
func (x *SCPointer[T]) CompareAndSwap(old, new *T) bool { return x.p.cas(old, new) }

// Publish32 is a release/acquire int32: a value one side writes and the
// other observes, with no cross-variable ordering claim (e.g. a run's
// state word, whose readers rely only on seeing the writes that preceded
// the state store).
type Publish32 struct{ v int32 }

// Load atomically loads the value (acquire).
func (x *Publish32) Load() int32 { return atomic.LoadInt32(&x.v) }

// Store atomically stores v (release).
func (x *Publish32) Store(v int32) { atomic.StoreInt32(&x.v, v) }

// Publish64 is a release/acquire int64 (e.g. per-worker statistics
// counters: a single owner writes, monitors sample).
type Publish64 struct{ v int64 }

// Load atomically loads the value (acquire).
func (x *Publish64) Load() int64 { return atomic.LoadInt64(&x.v) }

// Store atomically stores v (release).
func (x *Publish64) Store(v int64) { atomic.StoreInt64(&x.v, v) }

// Add atomically adds delta and returns the new value.
func (x *Publish64) Add(delta int64) int64 { return atomic.AddInt64(&x.v, delta) }

// PublishUint64 is a release/acquire uint64 (e.g. the injector's per-cell
// sequence words: Vyukov's design needs exactly release on publication and
// acquire on the consumer's check).
type PublishUint64 struct{ v uint64 }

// Load atomically loads the value (acquire).
func (x *PublishUint64) Load() uint64 { return atomic.LoadUint64(&x.v) }

// Store atomically stores v (release).
func (x *PublishUint64) Store(v uint64) { atomic.StoreUint64(&x.v, v) }

// PublishBool is a release/acquire bool (e.g. a shutdown or completion
// flag whose observers rely only on seeing the writes before the flip).
type PublishBool struct{ v uint32 }

// Load atomically loads the value (acquire).
func (x *PublishBool) Load() bool { return atomic.LoadUint32(&x.v) != 0 }

// Store atomically stores v (release).
func (x *PublishBool) Store(v bool) { atomic.StoreUint32(&x.v, b32(v)) }

// PublishPointer is a release/acquire typed pointer (e.g. the Chase-Lev
// ring pointer: the owner publishes a grown ring, thieves acquire it).
type PublishPointer[T any] struct{ p ptr[T] }

// Load atomically loads the pointer (acquire).
func (x *PublishPointer[T]) Load() *T { return x.p.load() }

// Store atomically stores v (release).
func (x *PublishPointer[T]) Store(v *T) { x.p.store(v) }

// PlainPointer is a declared-unsynchronized typed pointer: every
// conflicting access pair is ordered by real happens-before edges
// (fork/join, channel, lock), which abporder verifies. Its accessors are
// deliberately plain loads and stores — the type exists to make the
// "plain is enough here" claim explicit and mechanically checkable, not
// to synchronize anything.
type PlainPointer[T any] struct{ p *T }

// Get returns the pointer with a plain load.
func (x *PlainPointer[T]) Get() *T { return x.p }

// Set stores v with a plain store.
func (x *PlainPointer[T]) Set(v *T) { x.p = v }

// ptr is the shared representation of the atomic pointer wrappers. Like
// sync/atomic's own Pointer it is a single pointer word routed through
// the atomic pointer intrinsics, with the word kept in its typed form.
type ptr[T any] struct{ v *T }

func (p *ptr[T]) word() *unsafe.Pointer { return (*unsafe.Pointer)(unsafe.Pointer(&p.v)) }
func (p *ptr[T]) load() *T              { return (*T)(atomic.LoadPointer(p.word())) }
func (p *ptr[T]) store(v *T)            { atomic.StorePointer(p.word(), unsafe.Pointer(v)) }
func (p *ptr[T]) swap(v *T) *T          { return (*T)(atomic.SwapPointer(p.word(), unsafe.Pointer(v))) }
func (p *ptr[T]) cas(old, new *T) bool {
	return atomic.CompareAndSwapPointer(p.word(), unsafe.Pointer(old), unsafe.Pointer(new))
}
