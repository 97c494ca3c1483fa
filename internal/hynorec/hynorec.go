// Package hynorec implements the Hybrid NOrec HyTM of Dalessandro et al. in
// the eager flavour the paper benchmarks (§3.1, "HY-NOrec").
//
// Coordination uses three global variables (plus the serial starvation
// lock of §3.3), all living in transactional memory so hardware
// transactions subscribe to them exactly as on real hardware:
//
//   - global clock: LSB is the lock bit; writer commits advance it by 2.
//   - global htm lock: set by a software slow path at its first write,
//     aborting every hardware fast path at once (their subscription covers
//     it from their first instruction). This is the scheme's false-abort
//     source: a slow-path writer to unrelated data still kills every
//     hardware transaction — the cost RH NOrec's postfix removes.
//   - fallback count: the number of active slow paths; fast-path writers
//     bump the clock only when it is non-zero.
package hynorec

import (
	"runtime"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Variant selects the software slow path's write strategy.
type Variant int

const (
	// Eager writes in place under the clock lock from the first write on —
	// the variant the paper found faster at its concurrency levels and the
	// one it benchmarks (§3.1).
	Eager Variant = iota
	// Lazy buffers writes and publishes them at commit (the classic
	// Hybrid NOrec design; §3.1 notes it was implemented and outperformed
	// by the eager one).
	Lazy
)

// System is a Hybrid NOrec TM over one shared memory.
type System struct {
	m       *mem.Memory
	dev     *htm.Device
	rec     *tm.Reclaimer
	policy  tm.RetryPolicy
	engine  *tm.Engine
	variant Variant

	g Globals
}

// New creates an eager Hybrid NOrec system. dev must speculate over m; zero
// policy fields take the paper's defaults.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	return NewVariant(m, dev, policy, Eager)
}

// NewVariant creates a Hybrid NOrec system with the chosen slow-path
// variant.
func NewVariant(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy, v Variant) *System {
	if dev.Memory() != m {
		panic("hynorec: device bound to a different memory")
	}
	engine := tm.NewEngine(policy)
	return &System{
		m:       m,
		dev:     dev,
		rec:     tm.NewReclaimer(),
		policy:  engine.Policy(),
		engine:  engine,
		variant: v,
		g:       NewGlobals(m),
	}
}

// Engine returns the system's retry engine (the service layer's
// admission-controller saturation signal; see core.System.Engine).
func (s *System) Engine() *tm.Engine { return s.engine }

// Name implements tm.System.
func (s *System) Name() string {
	if s.variant == Lazy {
		return "hy-norec-lazy"
	}
	return "hy-norec"
}

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{sys: s, base: tm.NewThreadBase(s.m, s.rec)}
	t.fast = FastPath{Globals: s.g, Base: &t.base, Htx: s.dev.NewTxn()}
	t.base.Engine = s.engine
	t.base.Bind(t, &t.fast)
	t.base.SerialEscape(s.g.SerialLock, s.policy.MaxSlowPathRestarts)
	return t
}

type readEntry struct {
	addr mem.Addr
	val  uint64
}

type thread struct {
	sys  *System
	base tm.ThreadBase
	fast FastPath

	// Slow-path state; the writes live in base.Log. Eager: in-place stores
	// under the clock lock. Lazy: value read set with extension plus
	// buffered stores.
	txv           uint64
	writeDetected bool
	readSet       []readEntry
}

func (t *thread) Stats() *tm.Stats { return &t.base.St }
func (t *thread) Close()           { t.base.CloseBase() }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// BeginSlow starts one try of the NOrec software slow path with the hybrid
// coordination: the Run registers in the fallback count once, and every
// try snapshots the clock at an unlocked value.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	m := t.base.M
	if try == 1 {
		m.AddPlain(t.sys.g.Fallbacks, 1)
	}
	t.writeDetected = false
	t.readSet = t.readSet[:0]
	for {
		v := m.LoadPlain(t.sys.g.Clock)
		if v&1 == 0 {
			t.txv = v
			return slowTx{t}, false
		}
		runtime.Gosched()
	}
}

// CommitSlow publishes the software attempt.
func (t *thread) CommitSlow() {
	m := t.base.M
	switch t.sys.variant {
	case Eager:
		if t.writeDetected {
			// Algorithm-2 ordering: release the HTM lock, then unlock and
			// advance the clock.
			t.base.Log.Seal()
			m.StorePlain(t.sys.g.HTMLock, 0)
			m.StorePlain(t.sys.g.Clock, (t.txv&^1)+2)
			t.writeDetected = false
		}
	case Lazy:
		if len(t.base.Log.Buffered()) > 0 {
			t.lazyCommit()
		}
	}
}

// EndSlow drops the Run's fallback registration.
func (t *thread) EndSlow() { t.base.M.SubPlain(t.sys.g.Fallbacks, 1) }

// lazyCommit publishes the lazy variant's buffered writes: lock the clock
// (validating or extending the snapshot as needed), kill the hardware fast
// paths for the non-atomic write-back, publish, release.
func (t *thread) lazyCommit() {
	m := t.base.M
	g := &t.sys.g
	for !m.CASPlain(g.Clock, t.txv, t.txv|1) {
		t.txv = t.validate()
	}
	m.StorePlain(g.HTMLock, 1)
	t.base.Log.Publish(t.base.Log.Buffered())
	t.base.Log.Seal()
	m.StorePlain(g.HTMLock, 0)
	m.StorePlain(g.Clock, t.txv+2)
}

// validate re-checks the lazy read set by value, returning the even clock
// the set is valid at; it restarts on a mismatch.
func (t *thread) validate() uint64 {
	m := t.base.M
	for {
		time := m.LoadPlain(t.sys.g.Clock)
		if time&1 == 1 {
			runtime.Gosched()
			continue
		}
		for _, r := range t.readSet {
			if m.LoadCommitted(r.addr) != r.val {
				tm.Restart()
			}
		}
		if m.LoadPlain(t.sys.g.Clock) == time {
			return time
		}
	}
}

// AbortSlow releases the hybrid locks over the memory the skeleton has just
// rolled back. Only user errors or application panics can abort after the
// first write (the clock lock makes validation failures impossible), so no
// concurrent transaction can have observed the undone values.
func (t *thread) AbortSlow(*htm.Abort) {
	m := t.base.M
	if t.writeDetected {
		m.StorePlain(t.sys.g.HTMLock, 0)
		m.StorePlain(t.sys.g.Clock, t.txv&^1)
		t.writeDetected = false
	}
}

// slowTx is the NOrec software view with hybrid coordination (eager or
// lazy per the system variant).
type slowTx struct{ t *thread }

func (v slowTx) Load(a mem.Addr) uint64 {
	t := v.t
	t.base.InstrumentedAccess()
	m := t.base.M
	if t.sys.variant == Eager {
		// LoadCommitted: a fast path's hardware commit publishes its data
		// and its clock bump as one step, so a value it wrote is never
		// returned ahead of the clock check seeing the bump.
		val := m.LoadCommitted(a)
		if m.LoadPlain(t.sys.g.Clock) != t.txv {
			tm.Restart()
		}
		return val
	}
	if val, ok := t.base.Log.Lookup(a); ok {
		return val
	}
	val := m.LoadCommitted(a)
	for m.LoadPlain(t.sys.g.Clock) != t.txv {
		t.txv = t.validate()
		val = m.LoadCommitted(a)
	}
	t.readSet = append(t.readSet, readEntry{a, val})
	return val
}

func (v slowTx) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	t.base.InstrumentedAccess()
	if t.sys.variant == Lazy {
		t.base.Log.Buffer(a, val)
		return
	}
	if !t.writeDetected {
		// First write: lock the clock, then kill every hardware fast path
		// by taking the HTM lock (their subscription reads it).
		m := t.base.M
		if !m.CASPlain(t.sys.g.Clock, t.txv, t.txv|1) {
			tm.Restart()
		}
		t.txv |= 1
		t.writeDetected = true
		m.StorePlain(t.sys.g.HTMLock, 1)
	}
	t.base.Log.StoreEager(a, val)
}

func (v slowTx) Alloc(n int) mem.Addr   { return v.t.base.TxAlloc(n) }
func (v slowTx) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }
