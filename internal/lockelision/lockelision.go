// Package lockelision implements transactional lock elision (paper §3.1,
// "Lock Elision"): transactions execute as pure hardware transactions that
// subscribe to a global lock, and a transaction that repeatedly fails in
// hardware acquires the lock — aborting every speculating transaction and
// serializing execution to guarantee progress.
//
// Without its hardware half the same protocol is the serial baseline
// (NewSerial): every transaction takes the global lock. That trivially
// provides opacity, serializability and privatization, scales not at all,
// and doubles as the correctness oracle for differential tests of the real
// algorithms.
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

// System is a lock-elision TM over one shared memory, or the serial
// baseline when it has no device.
type System struct {
	tm.SystemBase
	// gLock is a word of m (0 free, 1 held) rather than a sync.Mutex so that
	// waiting for it passes hooked memory operations: under the
	// deterministic explorer a waiter yields to the holder instead of
	// blocking the one running goroutine until the watchdog fires.
	gLock mem.Addr
}

// New creates a lock-elision system. dev must speculate over m. Zero policy
// fields take the paper's defaults.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	return &System{
		SystemBase: tm.NewHybridBase("lock-elision", m, dev, policy),
		gLock:      m.NewThreadCache().Alloc(mem.LineWords), // the lock gets its own cache line
	}
}

// NewSerial creates the serial baseline over m: lock elision with no device,
// so every Run executes under the global lock.
func NewSerial(m *mem.Memory) *System {
	return &System{SystemBase: tm.NewSystemBase("serial", m), gLock: m.NewThreadCache().Alloc(mem.LineWords)}
}

// NewThread implements tm.System. A thread of a system without a device
// binds no hardware half.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase(), gLock: s.gLock}
	var hw tm.Hardware
	if t.HTM() != nil {
		hw = t
	}
	t.Bind(t, hw)
	return t
}

type thread struct {
	tm.ThreadBase
	gLock mem.Addr
}

// FastReady avoids starting a speculation that is doomed to abort on its
// subscription check.
func (t *thread) FastReady(*htm.Abort) bool {
	for t.M.LoadPlain(t.gLock) != 0 {
		runtime.Gosched()
	}
	return true
}

// BeginFast subscribes to the global lock (elision): abort if it is held,
// and keep it in the read set so a later acquisition kills this
// speculation.
func (t *thread) BeginFast() tm.Tx {
	htx := t.HTM()
	htx.Begin()
	if htx.Load(t.gLock) != 0 {
		htx.Abort(abortLockTaken)
	}
	return t.HardwareTx()
}

// CommitFast has no metadata to publish; read-only speculations commit
// lock-free in the substrate.
func (t *thread) CommitFast() { t.HTM().Commit() }

// AbortFast discards speculative writes; nothing became visible.
func (t *thread) AbortFast() { t.HTM().Cancel() }

// BeginSlow acquires the global lock so the callback runs
// non-speculatively. The acquisition's plain store aborts all current
// speculations (they subscribed to the lock), preserving opacity. A retry
// of the same Run (a Restart from application code) already holds it.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.AcquireLock(t.gLock)
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
func (t *thread) EndSlow() { t.M.StorePlain(t.gLock, 0) }
