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
	m      *mem.Memory
	dev    *htm.Device
	rec    *tm.Reclaimer
	policy tm.RetryPolicy
	engine *tm.Engine

	g Globals
}

// New creates a lazy Hybrid NOrec system. dev must speculate over m; zero
// policy fields take the paper's defaults.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	if dev.Memory() != m {
		panic("hynorec: device bound to a different memory")
	}
	engine := tm.NewEngine(policy)
	return &System{
		m:      m,
		dev:    dev,
		rec:    tm.NewReclaimer(),
		policy: engine.Policy(),
		engine: engine,
		g:      NewGlobals(m),
	}
}

// Engine returns the system's retry engine (the service layer's
// admission-controller saturation signal; see core.System.Engine).
func (s *System) Engine() *tm.Engine { return s.engine }

// Name implements tm.System.
func (s *System) Name() string { return "hy-norec-lazy" }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{sys: s, base: tm.NewThreadBase(s.m, s.rec)}
	t.fast = FastPath{Globals: s.g, Base: &t.base, Htx: s.dev.NewTxn()}
	t.base.Clock = tm.NewClock(s.m, s.g.Clock)
	t.base.Engine = s.engine
	t.base.Bind(t, &t.fast)
	t.base.SerialEscape(s.g.SerialLock, s.policy.MaxSlowPathRestarts)
	return t
}

type thread struct {
	sys  *System
	base tm.ThreadBase
	fast FastPath
}

func (t *thread) Stats() *tm.Stats { return &t.base.St }
func (t *thread) Close()           { t.fast.Htx.Close(); t.base.CloseBase() }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// BeginSlow starts one try of the NOrec software slow path with the hybrid
// coordination: the Run registers in the fallback count once, and every
// try snapshots the clock at an unlocked value.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	if try == 1 {
		t.base.M.AddPlain(t.sys.g.Fallbacks, 1)
	}
	t.base.Clock.Snapshot()
	return t.base.LazyTx(), false
}

// CommitSlow publishes the buffered writes: lock the clock (validating or
// extending the snapshot as needed), kill the hardware fast paths for the
// non-atomic write-back, publish, release.
func (t *thread) CommitSlow() {
	if len(t.base.Log.Buffered()) == 0 {
		return // read-only: nothing to publish, nothing to lock
	}
	m := t.base.M
	t.base.Clock.LockValidating()
	m.StorePlain(t.sys.g.HTMLock, 1)
	t.base.Log.Publish(t.base.Log.Buffered())
	t.base.Log.Seal()
	m.StorePlain(t.sys.g.HTMLock, 0)
	t.base.Clock.Release(true)
}

// AbortSlow has nothing to release: the attempt holds no lock before its
// commit point, and nothing after the clock CAS can fail.
func (t *thread) AbortSlow(*htm.Abort) {}

// EndSlow drops the Run's fallback registration.
func (t *thread) EndSlow() { t.base.M.SubPlain(t.sys.g.Fallbacks, 1) }
