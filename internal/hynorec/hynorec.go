// Package hynorec holds what the NOrec hybrids share and what only the lazy
// one has. fast.go is the coordination words and the hardware fast path of
// both Hybrid NOrec and RH NOrec (Algorithm 1). The eager Hybrid NOrec the
// paper benchmarks ("HY-NOrec", §3.1) is not here: it is RH NOrec's mixed
// slow path with neither small hardware transaction, and internal/core
// builds it as that (core.NewHybridNOrec). This file is the classic lazy
// Hybrid NOrec of Dalessandro et al., which §3.1 notes was implemented and
// outperformed by the eager one: internal/tm's lazy NOrec view (tm.LazyTx,
// a value read log with snapshot extension over tm.Clock, buffered writes)
// and a commit that locks the clock, takes the global HTM lock — aborting
// every hardware fast path at once, also those on unrelated data: the false
// aborts RH NOrec's postfix removes — and publishes.
package hynorec

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// System is a lazy Hybrid NOrec TM over one shared memory.
type System struct {
	tm.SystemBase
	g Globals
}

// New creates a lazy Hybrid NOrec system. dev must speculate over m; the
// zero policy is the paper's.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	return &System{SystemBase: tm.NewHybridBase("hy-norec-lazy", m, dev, policy), g: NewGlobals(m)}
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase()}
	t.fast = FastPath{Globals: s.g, Base: &t.ThreadBase}
	t.Clock = tm.NewClock(s.Memory(), s.g.Clock)
	t.Bind(t, &t.fast)
	t.SerialEscape(s.g.SerialLock)
	return t
}

// thread keeps the coordination words in its fast path.
type thread struct {
	tm.ThreadBase
	fast FastPath
}

// BeginSlow starts one try of the NOrec software slow path with the hybrid
// coordination: the Run registers in the fallback count once, and every
// try snapshots the clock at an unlocked value.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.M.AddPlain(t.fast.Fallbacks, 1)
	}
	t.Clock.Snapshot()
	return t.LazyTx(), false
}

// CommitSlow publishes the buffered writes: lock the clock (validating or
// extending the snapshot as needed), kill the hardware fast paths for the
// non-atomic write-back, publish, release.
func (t *thread) CommitSlow() {
	if len(t.Log.Buffered()) == 0 {
		return // read-only: nothing to publish, nothing to lock
	}
	m := t.M
	t.Clock.LockValidating()
	m.StorePlain(t.fast.HTMLock, 1)
	t.Log.Publish(t.Log.Buffered())
	t.Log.Seal()
	m.StorePlain(t.fast.HTMLock, 0)
	t.Clock.Release(true)
}

// AbortSlow has nothing to release: the attempt holds no lock before its
// commit point, and nothing after the clock CAS can fail.
func (t *thread) AbortSlow(*htm.Abort) {}

// EndSlow drops the Run's fallback registration.
func (t *thread) EndSlow() { t.M.SubPlain(t.fast.Fallbacks, 1) }
