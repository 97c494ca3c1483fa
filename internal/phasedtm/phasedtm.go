// Package phasedtm implements the PhasedTM approach the paper's background
// discusses (§1.1, [16]): execution proceeds in global phases that are
// either all-hardware or all-software. In the hardware phase transactions
// run pure and uninstrumented; when any transaction cannot complete in
// hardware the whole system switches to a software phase (an eager NOrec
// here, tm.EagerTx) and every concurrent transaction pays for it — "poor
// performance if even a single transaction needs to be executed in
// software", which is the weakness the benchmarks can demonstrate against
// the hybrids.
//
// Phase protocol: gMode holds the phase; gSWActive counts live software
// transactions. Hardware transactions subscribe to both at start, so a
// phase switch or a straggling software transaction aborts them instantly.
// A software transaction registers in gSWActive before verifying the phase,
// closing the switch-back race.
package phasedtm

import (
	"runtime"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Phases.
const (
	modeHW = 0
	modeSW = 1
)

// abortWrongPhase is the XABORT payload for the phase-subscription check:
// the canonical htm.ArgWrongPhase, so the observability taxonomy separates
// phase-protocol aborts from data conflicts.
const abortWrongPhase = htm.ArgWrongPhase

// System is a PhasedTM over one shared memory.
type System struct {
	tm.SystemBase
	gMode     mem.Addr
	gSWActive mem.Addr
	gClock    mem.Addr // the software phase's NOrec clock
}

// New creates a PhasedTM system. dev must speculate over m.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	tc := m.NewThreadCache()
	return &System{
		SystemBase: tm.NewHybridBase("phased-tm", m, dev, policy),
		gMode:      tc.Alloc(mem.LineWords),
		gSWActive:  tc.Alloc(mem.LineWords),
		gClock:     tc.Alloc(mem.LineWords),
	}
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase(), sys: s}
	t.Clock = tm.NewClock(s.Memory(), s.gClock)
	t.Bind(t, t)
	return t
}

type thread struct {
	tm.ThreadBase
	sys *System
}

// FastReady checks the phase before every hardware try. In the software
// phase it attempts the opportunistic switch-back — if the software phase
// has drained, restore the hardware phase — and otherwise sends the
// transaction to software like everyone else's.
func (t *thread) FastReady(*htm.Abort) bool {
	m := t.M
	if m.LoadPlain(t.sys.gMode) == modeSW {
		if m.LoadPlain(t.sys.gSWActive) != 0 || !m.CASPlain(t.sys.gMode, modeSW, modeHW) {
			return false
		}
	}
	return true
}

// BeginFast starts a pure hardware transaction of the hardware phase.
// Phase subscription: any switch to software, or a straggling software
// transaction, kills this speculation.
func (t *thread) BeginFast() tm.Tx {
	htx := t.HTM()
	htx.Begin()
	if htx.Load(t.sys.gMode) != modeHW || htx.Load(t.sys.gSWActive) != 0 {
		htx.Abort(abortWrongPhase)
	}
	return t.HardwareTx()
}

func (t *thread) CommitFast() { t.HTM().Commit() }
func (t *thread) AbortFast()  { t.HTM().Cancel() }

// BeginSlow starts one try in the software phase (eager NOrec). The first
// try of a Run switches the whole system to the software phase — hardware
// gave up, or the policy kept it away; a no-op when the phase is already
// software — and registers the transaction.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	m := t.M
	if try == 1 {
		m.CASPlain(t.sys.gMode, modeHW, modeSW)
		// Register before verifying the phase: a hardware transaction that
		// starts concurrently sees either the registration or the software
		// mode and aborts either way.
		m.AddPlain(t.sys.gSWActive, 1)
		for m.LoadPlain(t.sys.gMode) != modeSW {
			// The phase flipped back before we got going; re-enter properly.
			m.SubPlain(t.sys.gSWActive, 1)
			runtime.Gosched()
			if m.LoadPlain(t.sys.gMode) == modeHW {
				m.CASPlain(t.sys.gMode, modeHW, modeSW)
			}
			m.AddPlain(t.sys.gSWActive, 1)
		}
	}
	t.Clock.Snapshot()
	return t.EagerTx(), false
}

// CommitSlow releases the clock a writer locked at its first write.
func (t *thread) CommitSlow() {
	if t.Clock.Held() {
		t.Log.Seal()
		t.Clock.Release(true)
	}
}

// AbortSlow releases the clock advanced over the rolled-back memory: the
// eager writes were in place while it was locked, so a reader that loaded
// one must see the clock move and validate again.
func (t *thread) AbortSlow(*htm.Abort) { t.Clock.Release(true) }

// EndSlow deregisters the transaction from the software phase.
func (t *thread) EndSlow() { t.M.SubPlain(t.sys.gSWActive, 1) }
