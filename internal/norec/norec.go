// Package norec implements the NOrec STM of Dalessandro, Spear and Scott,
// in the two flavours the paper evaluates (§3.1, "NOrec"):
//
//   - Eager: encounter-time writes. A transaction spins on the global clock
//     at start, restarts whenever the clock moves during its read phase,
//     locks the clock at its first write, then writes directly to memory.
//     No read-set or write-set logging — the variant the paper found
//     fastest at its concurrency levels, and the slow path used by the
//     hybrid systems.
//   - Lazy: the classic NOrec. Value-logged read set with snapshot
//     extension, buffered write set, commit-time clock lock and write-back.
//
// The single piece of global metadata is the NOrec clock: LSB is the lock
// bit, committed writer transactions advance it by 2.
package norec

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Variant selects the NOrec flavour.
type Variant int

const (
	// Eager is the encounter-time-write variant (paper default).
	Eager Variant = iota
	// Lazy is the classic deferred-write variant.
	Lazy
)

func (v Variant) String() string {
	if v == Lazy {
		return "norec-lazy"
	}
	return "norec"
}

// System is a NOrec STM over one shared memory.
type System struct {
	m       *mem.Memory
	rec     *tm.Reclaimer
	variant Variant
	clock   mem.Addr
}

// New creates a NOrec system of the given variant. NOrec has no hardware
// fast path to retry, so it takes no tm.RetryPolicy.
func New(m *mem.Memory, variant Variant) *System {
	tc := m.NewThreadCache()
	return &System{
		m:       m,
		rec:     tm.NewReclaimer(),
		variant: variant,
		clock:   tc.Alloc(mem.LineWords),
	}
}

// Name implements tm.System.
func (s *System) Name() string { return s.variant.String() }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{sys: s, base: tm.NewThreadBase(s.m, s.rec)}
	if s.variant == Lazy {
		t.base.Reads = tm.NewReadLog(s.m, s.clock)
	}
	t.base.Bind(t, nil)
	return t
}

type thread struct {
	sys  *System
	base tm.ThreadBase

	// txv is the transaction's clock snapshot; LSB set means this thread
	// holds the clock lock (eager variant only).
	txv uint64

	// The writes live in base.Log: in-place stores under the clock lock
	// (eager, writeDetected once the lock is ours) or buffered stores next
	// to the value read set in base.Reads (lazy).
	writeDetected bool
}

func (t *thread) Stats() *tm.Stats { return &t.base.St }
func (t *thread) Close()           { t.base.CloseBase() }

func (t *thread) Run(fn func(tm.Tx) error) error         { return t.base.Run(fn, false) }
func (t *thread) RunReadOnly(fn func(tm.Tx) error) error { return t.base.Run(fn, true) }

// BeginSlow starts one try: spin until the clock is unlocked, then
// snapshot it.
func (t *thread) BeginSlow(int) (tm.Tx, bool) {
	t.writeDetected = false
	t.txv = t.base.SnapshotClock(t.sys.clock)
	return txView{t}, false
}

func (t *thread) EndSlow() {}

// AbortSlow releases the clock lock if the eager variant aborted
// mid-write-phase (only possible via user error or an application panic;
// clock validation cannot fail while the lock is held).
func (t *thread) AbortSlow(*htm.Abort) {
	if t.writeDetected {
		// The skeleton has restored memory, but the eager writes were in
		// place while the clock was locked: a reader may have loaded one
		// and be waiting for the clock. Releasing it advanced sends that
		// reader back to validate; an unadvanced release would hand it
		// its own snapshot back and let it commit the undone value.
		t.base.M.StorePlain(t.sys.clock, (t.txv&^1)+2)
		t.writeDetected = false
	}
}

// CommitSlow is the NOrec commit point: the eager variant releases the
// clock it locked at its first write; the lazy one locks it now, validating
// or extending its snapshot, and writes back.
func (t *thread) CommitSlow() {
	m := t.base.M
	switch t.sys.variant {
	case Eager:
		if t.writeDetected {
			t.base.Log.Seal()
			m.StorePlain(t.sys.clock, (t.txv&^1)+2)
			t.writeDetected = false
		}
	case Lazy:
		if len(t.base.Log.Buffered()) == 0 {
			return // read-only: nothing to publish, nothing to lock
		}
		for !m.CASPlain(t.sys.clock, t.txv, t.txv|1) {
			t.txv = t.base.Reads.Validate()
		}
		t.base.Log.Publish(t.base.Log.Buffered())
		t.base.Log.Seal()
		m.StorePlain(t.sys.clock, t.txv+2) // txv is even here
	}
}

type txView struct{ t *thread }

func (v txView) Load(a mem.Addr) uint64 {
	t := v.t
	t.base.InstrumentedAccess()
	m := t.base.M
	if t.sys.variant == Eager {
		val := m.LoadPlain(a)
		if m.LoadPlain(t.sys.clock) != t.txv {
			// Some writer committed (or locked the clock): without a read
			// set there is nothing to revalidate — restart (paper §3.1).
			tm.Restart()
		}
		return val
	}
	// Lazy: write set first, then a validated read with snapshot extension.
	if val, ok := t.base.Log.Lookup(a); ok {
		return val
	}
	return t.base.Reads.Load(a, &t.txv)
}

func (v txView) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.base.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	t.base.InstrumentedAccess()
	if t.sys.variant == Eager {
		if !t.writeDetected {
			// First write: lock the clock at our snapshot (acquire_clock_lock
			// in Algorithm 2 terms). Failure means someone committed.
			if !t.base.M.CASPlain(t.sys.clock, t.txv, t.txv|1) {
				tm.Restart()
			}
			t.txv |= 1
			t.writeDetected = true
		}
		t.base.Log.StoreEager(a, val)
		return
	}
	t.base.Log.Buffer(a, val)
}

func (v txView) Alloc(n int) mem.Addr   { return v.t.base.TxAlloc(n) }
func (v txView) Free(a mem.Addr, n int) { v.t.base.TxFree(a, n) }
