package hynorec

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// This file is the hardware fast path of the NOrec hybrids — Algorithm 1 of
// the RH NOrec paper, which is also the fast path of the Hybrid NOrec it
// is measured against (§3.1): subscribe to the global HTM lock at the start,
// touch the clock only at a writer's commit and only if a slow path exists.
// internal/core binds the same code; the two hybrids differ in their slow
// paths alone.

// Globals are the coordination words of the NOrec hybrids, each on its own
// cache line in transactional memory so hardware transactions subscribe to
// them as on real hardware.
type Globals struct {
	Clock      mem.Addr // LSB is the lock bit; writer commits advance it by 2
	HTMLock    mem.Addr // nonzero while a slow path writes in software
	Fallbacks  mem.Addr // number of Runs on the slow path
	SerialLock mem.Addr // the §3.3 starvation escape
}

// NewGlobals allocates the four words from m.
func NewGlobals(m *mem.Memory) Globals {
	tc := m.NewThreadCache()
	return Globals{
		Clock:      tc.Alloc(mem.LineWords),
		HTMLock:    tc.Alloc(mem.LineWords),
		Fallbacks:  tc.Alloc(mem.LineWords),
		SerialLock: tc.Alloc(mem.LineWords),
	}
}

// FastPath is the tm.Hardware half of a NOrec hybrid's thread.
type FastPath struct {
	Globals
	Base *tm.ThreadBase
}

// FastReady spins out the lock a hardware try just aborted on, rather than
// restarting straight into the same explicit abort.
func (f *FastPath) FastReady(prev *htm.Abort) bool {
	f.Base.SpinOutLock(prev, f.HTMLock, f.Clock)
	return true
}

// BeginFast is Algorithm 1's start: a pure hardware transaction that
// subscribes only to the global HTM lock; the callback then runs
// uninstrumented.
func (f *FastPath) BeginFast() tm.Tx {
	htx := f.Base.HTM()
	htx.Begin()
	if htx.Load(f.HTMLock) != 0 {
		htx.Abort(htm.ArgHTMLockTaken)
	}
	return f.Base.HardwareTx()
}

// CommitFast is Algorithm 1's commit: the clock is touched only here, at
// the commit point, and only by a writer while a slow path exists (the
// fallback-count subscription happens at the very end, keeping the common
// no-fallback case clock-free). Transactions that wrote nothing commit
// without looking at the clock at all — and the substrate commits them
// lock-free (seqlock validation, no writeback lock), so the whole read-only
// fast path is mutex-free end to end.
func (f *FastPath) CommitFast() {
	htx := f.Base.HTM()
	if htx.WriteLineCount() > 0 && htx.Load(f.Fallbacks) > 0 {
		if htx.Load(f.SerialLock) != 0 {
			htx.Abort(htm.ArgSerialTaken)
		}
		c := htx.Load(f.Clock)
		if c&1 != 0 {
			htx.Abort(htm.ArgClockLocked)
		}
		htx.Store(f.Clock, c+2)
	}
	htx.Commit()
}

// AbortFast discards a live speculation; nothing it did was visible.
func (f *FastPath) AbortFast() { f.Base.HTM().Cancel() }
