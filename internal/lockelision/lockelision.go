// Package lockelision implements transactional lock elision (paper §3.1,
// "Lock Elision"): transactions execute as pure hardware transactions that
// subscribe to a global lock, and a transaction that repeatedly fails in
// hardware acquires the lock — aborting every speculating transaction and
// serializing execution to guarantee progress.
package lockelision

import (
	"runtime"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// abortLockTaken is the XABORT payload used when the subscription check
// finds the global lock held: the canonical htm.ArgHTMLockTaken, so the
// observability taxonomy classifies it (the elided lock plays the role the
// global HTM lock plays in the hybrids).
const abortLockTaken = htm.ArgHTMLockTaken

// System is a lock-elision TM over one shared memory.
type System struct {
	m      *mem.Memory
	dev    *htm.Device
	rec    *tm.Reclaimer
	policy tm.RetryPolicy
	engine *tm.Engine
	gLock  mem.Addr
}

// New creates a lock-elision system. dev must speculate over m. Zero policy
// fields take the paper's defaults.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	if dev.Memory() != m {
		panic("lockelision: device bound to a different memory")
	}
	engine := tm.NewEngine(policy)
	tc := m.NewThreadCache()
	s := &System{
		m:      m,
		dev:    dev,
		rec:    tm.NewReclaimer(),
		policy: engine.Policy(),
		engine: engine,
		gLock:  tc.Alloc(mem.LineWords), // the lock gets its own cache line
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "lock-elision" }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{
		sys:  s,
		base: tm.NewThreadBase(s.m, s.rec),
		htx:  s.dev.NewTxn(),
	}
	t.base.Engine = s.engine
	t.base.Bind(t, t)
	return t
}

type thread struct {
	sys  *System
	base tm.ThreadBase
	htx  *htm.Txn
}

func (t *thread) Stats() *tm.Stats { return &t.base.St }
func (t *thread) Close()           { t.htx.Close(); t.base.CloseBase() }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// FastReady avoids starting a speculation that is doomed to abort on its
// subscription check.
func (t *thread) FastReady(*htm.Abort) bool {
	for t.base.M.LoadPlain(t.sys.gLock) != 0 {
		runtime.Gosched()
	}
	return true
}

// BeginFast subscribes to the global lock (elision): abort if it is held,
// and keep it in the read set so a later acquisition kills this
// speculation.
func (t *thread) BeginFast() tm.Tx {
	t.htx.Begin()
	if t.htx.Load(t.sys.gLock) != 0 {
		t.htx.Abort(abortLockTaken)
	}
	return fastTx{t}
}

// CommitFast has no metadata to publish; read-only speculations commit
// lock-free in the substrate.
func (t *thread) CommitFast() { t.htx.Commit() }

// AbortFast discards speculative writes; nothing became visible.
func (t *thread) AbortFast() { t.htx.Cancel() }

// BeginSlow acquires the global lock so the callback runs
// non-speculatively. The acquisition's plain store aborts all current
// speculations (they subscribed to the lock), preserving opacity. A retry
// of the same Run (a Restart from application code) already holds it.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.base.AcquireLock(t.sys.gLock)
	}
	return slowTx{t}, true
}

// CommitSlow has nothing to publish — the writes went to memory in place —
// only the redo record to hand over before EndSlow releases the lock.
func (t *thread) CommitSlow() { t.base.Log.Seal() }

// AbortSlow has nothing of its own to drop: the skeleton undoes the
// in-place writes.
func (t *thread) AbortSlow(*htm.Abort) {}

// EndSlow releases the global lock.
func (t *thread) EndSlow() { t.base.M.StorePlain(t.sys.gLock, 0) }

// fastTx is the uninstrumented hardware view: loads and stores go straight
// to the speculation buffer.
type fastTx struct{ t *thread }

func (v fastTx) Load(a mem.Addr) uint64 { return v.t.htx.Load(a) }

func (v fastTx) Store(a mem.Addr, val uint64) {
	if v.t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	v.t.htx.Store(a, val)
}

func (v fastTx) Alloc(n int) mem.Addr   { return v.t.base.TxAlloc(n) }
func (v fastTx) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }

// slowTx is the serialized view under the global lock; stores go through
// the write log so a user abort can take them back.
type slowTx struct{ t *thread }

func (v slowTx) Load(a mem.Addr) uint64 { return v.t.base.M.LoadPlain(a) }

func (v slowTx) Store(a mem.Addr, val uint64) {
	if v.t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	v.t.base.Log.StoreEager(a, val)
}

func (v slowTx) Alloc(n int) mem.Addr   { return v.t.base.TxAlloc(n) }
func (v slowTx) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }
