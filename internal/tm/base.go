package tm

import (
	"runtime"

	"rhnorec/internal/mem"
)

// yieldPeriod is how many instrumented software-path memory operations run
// between yields. Like the simulated HTM's period of 7, this restores the
// instruction-level interleaving of real hardware threads when goroutines
// share few OS threads. A prime different from the HTM period avoids
// lock-step scheduling between paths. Under the explorer
// (internal/explore) the Gosched is harmless: only the worker holding the
// baton is runnable.
const yieldPeriod = 13

// softwareAccessCost is the calibrated instrumentation-cost model (see
// DESIGN.md): on the paper's hardware an instrumented STM access costs
// several times a raw load, while this simulator naturally inverts that
// ratio (the simulated HTM pays heavy bookkeeping, the software paths pay
// almost none). Each instrumented software access therefore spins this many
// units of dummy work so the *relative* per-access costs — the quantity the
// paper's STM-vs-HyTM comparisons measure — match the published ratio (an
// eager-NOrec access costs a few times a simulated-hardware access, as on
// the paper's testbed). The spin has no yield point, so it cannot reorder an
// explored schedule.
const softwareAccessCost = 160

// ThreadBase carries the state every algorithm's Thread needs: the memory,
// a thread-local allocator cache, a reclamation slot, per-attempt
// allocation/free tracking, the software write log and NOrec clock, and the
// statistics counters. Algorithm packages embed it.
type ThreadBase struct {
	M     *mem.Memory
	Cache *mem.ThreadCache
	Slot  *Slot
	St    Stats
	// Engine is the System's shared retry policy (engine.go), set at
	// thread construction by every driver that binds a hardware fast path;
	// the skeleton (run.go) consults it only on that path. Pure-software
	// drivers leave it nil.
	Engine *Engine
	// ReadOnly is the static read-only hint of the Run in progress
	// (Thread.RunReadOnly); driver views reject Store under it and commit
	// points may skip writer-side work.
	ReadOnly bool
	// Log is the software attempt's write log (writelog.go). The skeleton
	// resets it before every software try and rolls it back before the
	// driver's AbortSlow; the driver stores through it and seals it at its
	// commit point.
	Log WriteLog
	// Clock is the NOrec clock of the software attempt (clock.go): its
	// snapshot, its lock and the lazy value read log, which the skeleton
	// empties beside Log. Only the NOrec-family drivers install one; for
	// the rest it stays the zero value.
	Clock Clock

	// The driver's protocol hooks and the §3.3 serial escape (run.go).
	sw          Software
	hw          Hardware
	serialLock  mem.Addr
	serialAfter int
	serialHeld  bool

	allocs  []block // blocks allocated by the current attempt
	frees   []block // frees requested by the current attempt
	closed  bool
	ops     int
	scratch uint64

	// Flat-nesting state: while a user callback runs, curTx holds its
	// transactional view so that a re-entrant Run executes inline in the
	// enclosing transaction (the GCC TM "flattened nesting" semantics).
	inTxn bool
	curTx Tx
}

// MaybeYield is the software-path twin of the HTM simulator's yield points;
// algorithms call it (usually via InstrumentedAccess) so software paths
// interleave mid-transaction. The countdown always runs, but the yield
// happens only while another thread of the System is registered: a lone
// thread has nothing to interleave with.
func (b *ThreadBase) MaybeYield() {
	b.ops++
	if b.ops%yieldPeriod == 0 && b.Slot.r.live.Load() > 1 {
		runtime.Gosched()
	}
}

// InstrumentedAccess marks one instrumented software-path memory access:
// it paces the scheduler and pays the calibrated instrumentation cost.
// Every STM Load/Store implementation calls it.
func (b *ThreadBase) InstrumentedAccess() {
	b.MaybeYield()
	x := b.scratch
	for i := 0; i < softwareAccessCost; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	b.scratch = x
}

// NewThreadBase wires a thread into memory m and reclaimer r.
func NewThreadBase(m *mem.Memory, r *Reclaimer) ThreadBase {
	cache := m.NewThreadCache()
	return ThreadBase{M: m, Cache: cache, Slot: r.Register(cache), Log: WriteLog{m: m}}
}

// BeginTxn pins the reclamation epoch; call once per Run invocation.
func (b *ThreadBase) BeginTxn() { b.Slot.Enter() }

// EndTxn unpins the epoch; call when Run returns.
func (b *ThreadBase) EndTxn() { b.Slot.Exit() }

// TxAlloc allocates a block on behalf of the current attempt.
func (b *ThreadBase) TxAlloc(n int) mem.Addr {
	a := b.Cache.Alloc(n)
	b.allocs = append(b.allocs, block{a, n})
	return a
}

// TxFree records a free to be honoured if the attempt commits.
func (b *ThreadBase) TxFree(a mem.Addr, n int) {
	b.frees = append(b.frees, block{a, n})
}

// AbortCleanup rolls back the attempt's allocation effects: requested frees
// are forgotten and this attempt's allocations are retired through the
// grace period (a doomed concurrent reader may have glimpsed their
// addresses, so they cannot be recycled immediately).
func (b *ThreadBase) AbortCleanup() {
	for _, blk := range b.allocs {
		b.Slot.Defer(blk.addr, blk.n)
	}
	b.allocs = b.allocs[:0]
	b.frees = b.frees[:0]
}

// CommitCleanup finalizes the attempt's allocation effects: allocations
// stay live, requested frees retire through the grace period.
func (b *ThreadBase) CommitCleanup() {
	b.allocs = b.allocs[:0]
	for _, blk := range b.frees {
		b.Slot.Defer(blk.addr, blk.n)
	}
	b.frees = b.frees[:0]
}

// CloseBase releases the reclamation slot (idempotent).
func (b *ThreadBase) CloseBase() {
	if b.closed {
		return
	}
	b.closed = true
	b.Slot.r.unregister(b.Slot)
	b.Cache.Drain()
}
