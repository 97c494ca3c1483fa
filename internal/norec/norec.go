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
// bit, committed writer transactions advance it by 2. Both flavours are the
// one clock and its two views in internal/tm (tm.Clock, EagerTx, LazyTx);
// this package picks the view and brackets the lazy commit point.
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
	tm.SystemBase
	variant Variant
	clock   mem.Addr
}

// New creates a NOrec system of the given variant. NOrec has no hardware
// fast path to retry, so it takes no tm.RetryPolicy.
func New(m *mem.Memory, variant Variant) *System {
	return &System{
		SystemBase: tm.NewSystemBase(variant.String(), m),
		variant:    variant,
		clock:      m.NewThreadCache().Alloc(mem.LineWords),
	}
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase(), variant: s.variant}
	t.Clock = tm.NewClock(s.Memory(), s.clock)
	t.Bind(t, nil)
	return t
}

// thread runs the variant's view of the clock; the eager writes and the
// lazy buffered ones both live in its Log.
type thread struct {
	tm.ThreadBase
	variant Variant
}

// BeginSlow starts one try: spin until the clock is unlocked, then
// snapshot it.
func (t *thread) BeginSlow(int) (tm.Tx, bool) {
	t.Clock.Snapshot()
	if t.variant == Lazy {
		return t.LazyTx(), false
	}
	return t.EagerTx(), false
}

func (t *thread) EndSlow() {}

// AbortSlow releases the clock if the eager variant aborted mid-write-phase
// (only possible via user error or an application panic; clock validation
// cannot fail while the lock is held). The skeleton has restored memory,
// but the eager writes were in place under the locked clock, so the release
// advances it. The lazy variant holds no lock before its commit point.
func (t *thread) AbortSlow(*htm.Abort) { t.Clock.Release(true) }

// CommitSlow is the NOrec commit point: the eager variant releases the
// clock it locked at its first write; the lazy one locks it now, validating
// or extending its snapshot, and writes back.
func (t *thread) CommitSlow() {
	c := &t.Clock
	if t.variant == Lazy {
		if len(t.Log.Buffered()) == 0 {
			return // read-only: nothing to publish, nothing to lock
		}
		c.LockValidating()
		t.Log.Publish(t.Log.Buffered())
	}
	if c.Held() {
		t.Log.Seal()
		c.Release(true)
	}
}
