// Package rhtl2 implements RH-TL2, the reduced-hardware TL2 hybrid of
// Matveev & Shavit's earlier work ("Reduced Hardware Transactions", [18] in
// the paper), which §1.2 discusses as RH NOrec's predecessor. It is
// included so the drawbacks that motivated RH NOrec are demonstrable:
//
//  1. The fast path's reads are uninstrumented, but its *writes* are not:
//     every written location's stripe metadata must be updated inside the
//     hardware transaction before it commits.
//  2. The mixed slow path commits with one small hardware transaction that
//     must hold both the read-set validation and the write-back, so its
//     footprint — and with it the failure probability — is much larger
//     than RH NOrec's postfix (which holds only the writes).
//  3. The scheme provides no privatization (TL2-style stripe metadata,
//     lazy write-back).
//
// The stripe table lives in transactional memory so fast-path hardware
// transactions can update it speculatively.
package rhtl2

import (
	"runtime"
	"sync/atomic"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// DefaultStripes is the size of the stripe table, a power of two.
const DefaultStripes = 1 << 14

// System is an RH-TL2 hybrid TM over one shared memory.
type System struct {
	tm.SystemBase

	// gv is the global version clock (even values; odd = a software
	// commit's stripe-lock phase is in progress is not used here — locks
	// are per stripe).
	gv mem.Addr
	// stripes is a table of version words in transactional memory:
	// even = version, odd = locked (owner threadID<<1|1).
	stripes mem.Addr
	// gHTMLock, a count of software-fallback commits in flight, aborts all
	// hardware fast paths while any of them validates and performs its
	// non-atomic write-back (the hardware commit transaction needs no such
	// lock — its write-back is atomic).
	gHTMLock mem.Addr
	// serialLock is the starvation escape, as in the NOrec hybrids.
	serialLock mem.Addr

	nextThreadID atomic.Uint64
}

// New creates an RH-TL2 system. dev must speculate over m. Zero policy
// fields take the paper's defaults.
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	tc := m.NewThreadCache()
	return &System{
		SystemBase: tm.NewHybridBase("rh-tl2", m, dev, policy),
		gv:         tc.Alloc(mem.LineWords),
		stripes:    tc.Alloc(DefaultStripes),
		gHTMLock:   tc.Alloc(mem.LineWords),
		serialLock: tc.Alloc(mem.LineWords),
	}
}

func (s *System) stripeOf(a mem.Addr) mem.Addr {
	return s.stripes + mem.Addr(uint64(mem.LineOf(a))%DefaultStripes)
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase(), sys: s, id: s.nextThreadID.Add(1)}
	t.Bind(t, t)
	t.SerialEscape(s.serialLock, s.Engine().Policy().MaxSlowPathRestarts)
	return t
}

type thread struct {
	tm.ThreadBase
	sys *System
	id  uint64

	// Fast-path write instrumentation: the stripes written this attempt.
	fastStripes []mem.Addr

	// Slow-path (TL2 lazy) state; the buffered stores live in base.Log.
	rv       uint64
	readSet  []mem.Addr // stripe addresses read
	readSeen map[mem.Addr]bool
	try      int // ordinal of the current slow attempt, for the abort taxonomy
}

// FastReady: RH-TL2 retries at once; it waits out no lock.
func (t *thread) FastReady(*htm.Abort) bool { return true }

// BeginFast subscribes to the HTM lock that guards software write-backs.
// Reads then run uninstrumented; writes are instrumented (fastTx.Store) —
// RH-TL2's first drawback.
func (t *thread) BeginFast() tm.Tx {
	htx := t.HTM()
	t.fastStripes = t.fastStripes[:0]
	htx.Begin()
	if htx.Load(t.sys.gHTMLock) != 0 {
		htx.Abort(htm.ArgHTMLockTaken)
	}
	return fastTx{t}
}

// CommitFast bumps every written stripe and the global version clock
// inside the speculation.
func (t *thread) CommitFast() {
	htx := t.HTM()
	if len(t.fastStripes) > 0 {
		if htx.Load(t.sys.serialLock) != 0 {
			htx.Abort(htm.ArgSerialTaken)
		}
		// Write instrumentation: publish a new version for every written
		// stripe. Reading gv here puts it in the speculation's tracking
		// set — concurrent writers conflict on it, one of RH-TL2's costs.
		wv := htx.Load(t.sys.gv) + 2
		for _, sa := range t.fastStripes {
			if htx.Load(sa)&1 == 1 {
				htx.Abort(htm.ArgStripeConflict) // stripe locked by a software commit
			}
			htx.Store(sa, wv)
		}
		htx.Store(t.sys.gv, wv)
	}
	htx.Commit()
}

func (t *thread) AbortFast() { t.HTM().Cancel() }

// BeginSlow starts one lazy-TL2 slow-path try: sample the read version and
// empty the read and write sets.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	m := t.M
	t.try = try
	t.rv = m.LoadPlain(t.sys.gv)
	for t.rv&1 == 1 {
		runtime.Gosched()
		t.rv = m.LoadPlain(t.sys.gv)
	}
	t.readSet = t.readSet[:0]
	clear(t.readSeen)
	return slowTx{t}, false
}

// AbortSlow has only buffered state to drop; stripe locks taken by a
// failing softwareCommit are released there, before it restarts.
func (t *thread) AbortSlow(*htm.Abort) {}

func (t *thread) EndSlow() {}

// CommitSlow is RH-TL2's second drawback made concrete: one small hardware
// transaction revalidates the read-set stripes AND performs the write-back,
// so its footprint is reads+writes (the stats reuse the Postfix counters
// for it). When it fails, the commit falls back to the classic TL2
// software commit with stripe locks.
func (t *thread) CommitSlow() {
	if len(t.Log.Buffered()) == 0 {
		return
	}
	t.St.PostfixAttempts++
	if ab := t.HTM().Attempt(t.commitInHardware); ab != nil {
		t.RecordHTMAbort(ab, t.try)
		t.softwareCommit()
		return
	}
	t.St.PostfixCommits++
}

// commitInHardware is the body of the commit transaction.
func (t *thread) commitInHardware() {
	htx := t.HTM()
	for _, sa := range t.readSet {
		s := htx.Load(sa)
		if s&1 == 1 || s > t.rv {
			htx.Abort(htm.ArgStripeConflict)
		}
	}
	wv := htx.Load(t.sys.gv) + 2
	for _, w := range t.Log.Buffered() {
		htx.Store(w.Addr, w.Value)
		htx.Store(t.sys.stripeOf(w.Addr), wv)
	}
	htx.Store(t.sys.gv, wv)
}

// softwareCommit is the classic TL2 lazy commit: lock write stripes,
// advance gv, validate reads, write back, release.
func (t *thread) softwareCommit() {
	m := t.M
	writes := t.Log.Buffered()
	// Lock every write stripe (deduplicated); on failure release and
	// restart the whole attempt.
	locked := make([]mem.Addr, 0, len(writes))
	lockedVals := make([]uint64, 0, len(writes))
	isLocked := func(sa mem.Addr) bool {
		for _, l := range locked {
			if l == sa {
				return true
			}
		}
		return false
	}
	htmLocked := false
	release := func() {
		for i, sa := range locked {
			m.StorePlain(sa, lockedVals[i])
		}
		if htmLocked {
			m.SubPlain(t.sys.gHTMLock, 1)
		}
	}
	for _, w := range writes {
		sa := t.sys.stripeOf(w.Addr)
		if isLocked(sa) {
			continue
		}
		v := m.LoadPlain(sa)
		if v&1 == 1 || v > t.rv || !m.CASPlain(sa, v, t.id<<1|1) {
			release()
			tm.Restart()
		}
		locked = append(locked, sa)
		lockedVals = append(lockedVals, v)
	}
	wv := m.AddPlain(t.sys.gv, 2)
	// The write-back is not atomic, so hardware fast paths must not run
	// across it — nor commit between the validation below and it, which
	// their uninstrumented reads would turn into a write skew: enter the
	// HTM lock first (their subscription aborts them). It is a count, not a
	// flag, because software commits over disjoint stripes overlap.
	m.AddPlain(t.sys.gHTMLock, 1)
	htmLocked = true
	// Validate the read set.
	for _, sa := range t.readSet {
		s := m.LoadPlain(sa)
		if s&1 == 1 {
			if !isLocked(sa) {
				release()
				tm.Restart()
			}
			continue
		}
		if s > t.rv {
			release()
			tm.Restart()
		}
	}
	// Write back, release the stripes at the new version, leave the lock.
	t.Log.Publish(writes)
	t.Log.Seal()
	for _, sa := range locked {
		m.StorePlain(sa, wv)
	}
	m.SubPlain(t.sys.gHTMLock, 1)
}

// fastTx: uninstrumented reads, instrumented writes.
type fastTx struct{ t *thread }

func (v fastTx) Load(a mem.Addr) uint64 { return v.t.HTM().Load(a) }

func (v fastTx) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	sa := t.sys.stripeOf(a)
	found := false
	for _, x := range t.fastStripes {
		if x == sa {
			found = true
			break
		}
	}
	if !found {
		t.fastStripes = append(t.fastStripes, sa)
	}
	t.HTM().Store(a, val)
}

func (v fastTx) Alloc(n int) mem.Addr   { return v.t.TxAlloc(n) }
func (v fastTx) Free(a mem.Addr, n int) { v.t.TxFree(a, n) }

// slowTx is the lazy TL2 software view.
type slowTx struct{ t *thread }

func (v slowTx) Load(a mem.Addr) uint64 {
	t := v.t
	t.InstrumentedAccess()
	if val, ok := t.Log.Lookup(a); ok {
		return val
	}
	m := t.M
	sa := t.sys.stripeOf(a)
	for {
		s1 := m.LoadPlain(sa)
		if s1&1 == 1 {
			tm.Restart()
		}
		val := m.LoadPlain(a)
		s2 := m.LoadPlain(sa)
		if s1 != s2 {
			runtime.Gosched()
			continue
		}
		if s1 > t.rv {
			tm.Restart()
		}
		if t.readSeen == nil {
			t.readSeen = make(map[mem.Addr]bool, 64)
		}
		if !t.readSeen[sa] {
			t.readSeen[sa] = true
			t.readSet = append(t.readSet, sa)
		}
		return val
	}
}

func (v slowTx) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	t.InstrumentedAccess()
	t.Log.Buffer(a, val)
}

func (v slowTx) Alloc(n int) mem.Addr   { return v.t.TxAlloc(n) }
func (v slowTx) Free(a mem.Addr, n int) { v.t.TxFree(a, n) }
