package tm

import (
	"runtime"

	"rhnorec/internal/mem"
)

// This file is the one NOrec clock: the only global metadata of every
// NOrec-family software path (Algorithm 2 of the RH NOrec paper). Its word's
// LSB is the lock bit and a writer's release advances it by 2. An attempt
// snapshots it at an even value, validates every read against it, locks it
// at its first write (eager) or at its commit point (lazy) and releases it
// advanced iff its stores reached memory. The lazy protocol also logs what
// it read, so a moved clock need not restart it: wait for the clock to be
// even, re-read every logged word, and if all still hold their logged
// values the snapshot extends to the new clock. Drivers keep only their
// policy — which view they run (EagerTx, LazyTx), what they bracket around
// the lock, and whether an abort published anything; the skeleton (run.go)
// empties the read log before each software try.

// Clock is one thread's handle on a NOrec clock word: the attempt's
// snapshot and its value read log. The zero value is an unused clock whose
// reset is free; drivers that run a NOrec software path install one per
// thread with NewClock.
type Clock struct {
	m    *mem.Memory
	word mem.Addr
	// txv is the attempt's snapshot, even; odd while this thread holds
	// the lock, which it took at txv&^1.
	txv uint64
	// reads holds one (address, value returned) pair per LoadLogged,
	// oldest first; its storage is grown once and recycled.
	reads []mem.WriteEntry
}

// NewClock returns a thread's handle on the clock word at word.
func NewClock(m *mem.Memory, word mem.Addr) Clock { return Clock{m: m, word: word} }

// Snapshot starts an attempt: yield until the clock's lock bit is clear and
// take that even value as the snapshot.
func (c *Clock) Snapshot() { c.txv = c.awaitEven() }

func (c *Clock) awaitEven() uint64 {
	for {
		if v := c.m.LoadPlain(c.word); v&1 == 0 {
			return v
		}
		runtime.Gosched()
	}
}

// Adopt takes v, an even clock value read elsewhere, as the snapshot: RH
// NOrec's HTM prefix reads the clock inside its hardware transaction and
// commits at it.
func (c *Clock) Adopt(v uint64) { c.txv = v }

// Time is the attempt's snapshot, odd while Held.
func (c *Clock) Time() uint64 { return c.txv }

// Held reports whether this attempt holds the clock's lock.
func (c *Clock) Held() bool { return c.txv&1 != 0 }

// Load is the eager validated read: a is read, and the attempt Restarts if
// the clock has left its snapshot. There is no read set to revalidate
// (paper §3.1); while this attempt holds the lock nobody else can move it.
func (c *Clock) Load(a mem.Addr) uint64 {
	val := c.m.LoadPlain(a)
	if c.m.LoadPlain(c.word) != c.txv {
		Restart()
	}
	return val
}

// LoadLogged is the lazy read: it reads a and logs what it returns. While
// the clock is not the snapshot the log is revalidated, the snapshot
// extended, and a read again, so the value returned is consistent with every
// earlier LoadLogged at the snapshot it leaves.
func (c *Clock) LoadLogged(a mem.Addr) uint64 {
	val := c.m.LoadPlain(a)
	for c.m.LoadPlain(c.word) != c.txv {
		c.txv = c.validate()
		val = c.m.LoadPlain(a)
	}
	c.reads = append(c.reads, mem.WriteEntry{Addr: a, Value: val})
	return val
}

// validate returns an even clock value at which every logged word still
// holds its logged value, waiting out a writer that holds the lock bit; it
// Restarts the transaction if one does not.
func (c *Clock) validate() uint64 {
	for {
		time := c.awaitEven()
		for _, r := range c.reads {
			if c.m.LoadPlain(r.Addr) != r.Value {
				Restart()
			}
		}
		if c.m.LoadPlain(c.word) == time {
			return time
		}
	}
}

// Lock is an eager attempt's acquire_clock_lock at its first write: CAS
// the clock from the snapshot to the snapshot with the lock bit set. If the
// clock has moved, a writer committed since the snapshot and the attempt
// Restarts, not holding the lock.
func (c *Clock) Lock() {
	if !c.m.CASPlain(c.word, c.txv, c.txv|1) {
		Restart()
	}
	c.txv |= 1
}

// LockValidating is a lazy commit point's lock: while the CAS from the
// snapshot fails, revalidate the read log and extend the snapshot (or
// Restart).
func (c *Clock) LockValidating() {
	for !c.m.CASPlain(c.word, c.txv, c.txv|1) {
		c.txv = c.validate()
	}
	c.txv |= 1
}

// Release drops the lock if this attempt holds it, advancing the clock by 2
// iff published: the attempt's stores reached memory. That holds also for an
// eager attempt that aborts after its rollback — a reader may have loaded
// one of its in-place stores under the locked clock, and only a moved clock
// sends it back to validate. Only stores that never left a hardware
// transaction (RH NOrec's dead postfix) release unadvanced.
func (c *Clock) Release(published bool) {
	if !c.Held() {
		return
	}
	next := c.txv &^ 1
	if published {
		next += 2
	}
	c.m.StorePlain(c.word, next)
	c.txv = next
}

// reset empties the read log for the next attempt.
func (c *Clock) reset() { c.reads = c.reads[:0] }

// EagerTx returns the eager NOrec view of the software attempt: validated
// reads, the clock locked at the first write, stores in place.
func (b *ThreadBase) EagerTx() Tx { return eagerTx{b} }

// LazyTx returns the lazy NOrec view of the software attempt: logged reads
// with snapshot extension, stores buffered for the commit point (whose lock
// bracket is the driver's: LockValidating, Publish, Seal, Release).
func (b *ThreadBase) LazyTx() Tx { return lazyTx{b} }

type eagerTx struct{ b *ThreadBase }

func (v eagerTx) Load(a mem.Addr) uint64 {
	v.b.InstrumentedAccess()
	return v.b.Clock.Load(a)
}

func (v eagerTx) Store(a mem.Addr, val uint64) {
	b := v.b
	if b.ReadOnly {
		panic(ErrStoreInReadOnly)
	}
	b.InstrumentedAccess()
	if !b.Clock.Held() {
		b.Clock.Lock()
	}
	b.Log.StoreEager(a, val)
}

func (v eagerTx) Alloc(n int) mem.Addr   { return v.b.TxAlloc(n) }
func (v eagerTx) Free(a mem.Addr, n int) { v.b.TxFree(a, n) }

type lazyTx struct{ b *ThreadBase }

func (v lazyTx) Load(a mem.Addr) uint64 {
	b := v.b
	b.InstrumentedAccess()
	if val, ok := b.Log.Lookup(a); ok {
		return val
	}
	return b.Clock.LoadLogged(a)
}

func (v lazyTx) Store(a mem.Addr, val uint64) {
	b := v.b
	if b.ReadOnly {
		panic(ErrStoreInReadOnly)
	}
	b.InstrumentedAccess()
	b.Log.Buffer(a, val)
}

func (v lazyTx) Alloc(n int) mem.Addr   { return v.b.TxAlloc(n) }
func (v lazyTx) Free(a mem.Addr, n int) { v.b.TxFree(a, n) }
