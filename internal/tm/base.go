package tm

import (
	"runtime"

	"rhnorec/internal/htm"
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

// SystemBase is the shell of every driver's System: the name, the memory,
// the reclaimer and, for a driver with a hardware fast path, the device and
// the retry engine. It answers Name, Memory and Engine; the driver adds its
// global words and NewThread, which starts from NewThreadBase.
type SystemBase struct {
	name   string
	m      *mem.Memory
	dev    *htm.Device
	rec    *Reclaimer
	engine *Engine
}

// NewSystemBase is the shell of a pure-software driver.
func NewSystemBase(name string, m *mem.Memory) SystemBase {
	return SystemBase{name: name, m: m, rec: NewReclaimer()}
}

// NewHybridBase is the shell of a driver with a hardware fast path on dev,
// which must speculate over m.
func NewHybridBase(name string, m *mem.Memory, dev *htm.Device, policy RetryPolicy) SystemBase {
	if dev.Memory() != m {
		panic("tm: device bound to a different memory")
	}
	s := NewSystemBase(name, m)
	s.dev, s.engine = dev, NewEngine(policy)
	return s
}

// Name implements System.
func (s *SystemBase) Name() string { return s.name }

// Memory implements System.
func (s *SystemBase) Memory() *mem.Memory { return s.m }

// Engine returns the system's retry engine, nil for a pure-software driver.
// The service layer (internal/serve) reads its live slow-path occupancy as
// the admission controller's saturation signal.
func (s *SystemBase) Engine() *Engine { return s.engine }

// NewThreadBase wires a new thread into the system; a hybrid's thread also
// gets its hardware context and the engine.
func (s *SystemBase) NewThreadBase() ThreadBase {
	b := newThreadBase(s.m, s.rec)
	if s.dev != nil {
		b.htx, b.Engine = s.dev.NewTxn(), s.engine
	}
	return b
}

// ThreadBase carries the state every algorithm's thread needs: the memory,
// a thread-local allocator cache, a reclamation slot, per-attempt
// allocation/free tracking, the software write log and NOrec clock, the
// hardware context and the statistics counters. Driver threads embed it,
// and it implements Thread for them.
type ThreadBase struct {
	M     *mem.Memory
	Cache *mem.ThreadCache
	Slot  *Slot
	St    Stats
	// Engine is the System's shared retry policy (engine.go), set by
	// SystemBase.NewThreadBase for a driver with a hardware fast path; the
	// skeleton (run.go) consults it only on that path. Pure-software
	// drivers have none.
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

	// htx is the hardware context of a hybrid's thread, nil for an STM's:
	// the fast path and any small transaction of the slow path never
	// overlap, so they share it.
	htx *htm.Txn

	// The driver's protocol hooks and the §3.3 serial escape (run.go).
	sw         Software
	hw         Hardware
	serialLock mem.Addr // mem.Nil: no escape armed
	serialHeld bool

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

// newThreadBase wires a thread into memory m and reclaimer r.
func newThreadBase(m *mem.Memory, r *Reclaimer) ThreadBase {
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

// HTM returns the thread's hardware context, nil for an STM's.
func (b *ThreadBase) HTM() *htm.Txn { return b.htx }

// Run implements Thread.
func (b *ThreadBase) Run(fn func(Tx) error) error { return b.run(fn, false) }

// RunReadOnly implements Thread.
func (b *ThreadBase) RunReadOnly(fn func(Tx) error) error { return b.run(fn, true) }

// Stats implements Thread.
func (b *ThreadBase) Stats() *Stats { return &b.St }

// Close implements Thread: it releases the hardware context and the
// reclamation slot.
func (b *ThreadBase) Close() {
	if b.closed {
		return
	}
	b.closed = true
	if b.htx != nil {
		b.htx.Close()
	}
	b.Slot.r.unregister(b.Slot)
	b.Cache.Drain()
}

// HardwareTx returns the uninstrumented view of a hardware try: loads and
// stores go straight to the speculation. It is the BeginFast view of every
// hybrid whose fast path instruments no access.
func (b *ThreadBase) HardwareTx() Tx { return hardwareTx{b} }

// LockedTx returns the plain view of a software attempt under a lock that
// excludes every other transaction (lock elision's fallback, the serial
// baseline): plain loads, and stores in place through the write log so a
// user abort can take them back.
func (b *ThreadBase) LockedTx() Tx { return lockedTx{b} }

type hardwareTx struct{ b *ThreadBase }

func (v hardwareTx) Load(a mem.Addr) uint64 { return v.b.htx.Load(a) }

func (v hardwareTx) Store(a mem.Addr, val uint64) {
	if v.b.ReadOnly {
		panic(ErrStoreInReadOnly)
	}
	v.b.htx.Store(a, val)
}

func (v hardwareTx) Alloc(n int) mem.Addr   { return v.b.TxAlloc(n) }
func (v hardwareTx) Free(a mem.Addr, n int) { v.b.TxFree(a, n) }

type lockedTx struct{ b *ThreadBase }

func (v lockedTx) Load(a mem.Addr) uint64 { return v.b.M.LoadPlain(a) }

func (v lockedTx) Store(a mem.Addr, val uint64) {
	if v.b.ReadOnly {
		panic(ErrStoreInReadOnly)
	}
	v.b.Log.StoreEager(a, val)
}

func (v lockedTx) Alloc(n int) mem.Addr   { return v.b.TxAlloc(n) }
func (v lockedTx) Free(a mem.Addr, n int) { v.b.TxFree(a, n) }
