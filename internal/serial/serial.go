// Package serial implements the degenerate baseline TM: a single global
// lock serializes every transaction. It trivially provides opacity,
// serializability and privatization, scales not at all, and doubles as the
// correctness oracle for differential tests of the real algorithms.
package serial

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// System is a global-lock TM over one shared memory.
type System struct {
	m   *mem.Memory
	rec *tm.Reclaimer
	// lock is a word of m (0 free, 1 held) rather than a sync.Mutex so that
	// waiting for it passes hooked memory operations: under the
	// deterministic explorer a waiter yields to the holder instead of
	// blocking the one running goroutine until the watchdog fires.
	lock mem.Addr
}

// New creates a serial TM over m.
func New(m *mem.Memory) *System {
	return &System{m: m, rec: tm.NewReclaimer(), lock: m.NewThreadCache().Alloc(mem.LineWords)}
}

// Name implements tm.System.
func (s *System) Name() string { return "serial" }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{sys: s, base: tm.NewThreadBase(s.m, s.rec)}
	t.base.Bind(t, nil)
	return t
}

type thread struct {
	sys  *System
	base tm.ThreadBase
}

// txView adapts the thread to tm.Tx while the lock is held.
type txView struct{ t *thread }

func (v txView) Load(a mem.Addr) uint64 { return v.t.base.M.LoadPlain(a) }

func (v txView) Store(a mem.Addr, val uint64) {
	if v.t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	v.t.base.Log.StoreEager(a, val)
}

func (v txView) Alloc(n int) mem.Addr { return v.t.base.TxAlloc(n) }

func (v txView) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// BeginSlow takes the global lock on the Run's first try; the whole Run
// executes under it.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.base.AcquireLock(t.sys.lock)
	}
	return txView{t}, true
}

// CommitSlow has nothing to publish — the writes went to memory in place —
// only the redo record to hand over before EndSlow releases the lock.
func (t *thread) CommitSlow() { t.base.Log.Seal() }

// AbortSlow has nothing of its own to drop: the skeleton undoes the
// in-place writes.
func (t *thread) AbortSlow(*htm.Abort) {}

// EndSlow releases the global lock.
func (t *thread) EndSlow() { t.base.M.StorePlain(t.sys.lock, 0) }

func (t *thread) Stats() *tm.Stats { return &t.base.St }

func (t *thread) Close() { t.base.CloseBase() }
