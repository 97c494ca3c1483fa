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
	tm.SystemBase
	// lock is a word of m (0 free, 1 held) rather than a sync.Mutex so that
	// waiting for it passes hooked memory operations: under the
	// deterministic explorer a waiter yields to the holder instead of
	// blocking the one running goroutine until the watchdog fires.
	lock mem.Addr
}

// New creates a serial TM over m.
func New(m *mem.Memory) *System {
	return &System{SystemBase: tm.NewSystemBase("serial", m), lock: m.NewThreadCache().Alloc(mem.LineWords)}
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase(), lock: s.lock}
	t.Bind(t, nil)
	return t
}

type thread struct {
	tm.ThreadBase
	lock mem.Addr
}

// BeginSlow takes the global lock on the Run's first try; the whole Run
// executes under it.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.AcquireLock(t.lock)
	}
	return t.LockedTx(), true
}

// CommitSlow has nothing to publish — the writes went to memory in place —
// only the redo record to hand over before EndSlow releases the lock.
func (t *thread) CommitSlow() { t.Log.Seal() }

// AbortSlow has nothing of its own to drop: the skeleton undoes the
// in-place writes.
func (t *thread) AbortSlow(*htm.Abort) {}

// EndSlow releases the global lock.
func (t *thread) EndSlow() { t.M.StorePlain(t.lock, 0) }
