package mem

import "sync/atomic"

// This file provides the flat-combining ring behind slow-path group commit:
// a software committer that finds the global sequence lock held at its own
// snapshot base enqueues its pre-validated write set here instead of
// spinning; the lock holder, before releasing, drains every queued commit
// whose base matches and whose read signature is disjoint from everything
// the group has written so far, and publishes the whole group under its one
// ticket window. The enqueuer then observes the outcome and either counts a
// commit or restarts — it never publishes anything itself.
//
// The ring is a fixed array of slots driven by a small state machine:
//
//	free --CAS--> setup --> pending --CAS--> claimed --> done | rejected
//	                 \--> (cancel: back to free)
//
// The enqueuer owns free->setup->pending and the terminal release;
// a holder owns pending->claimed->done/rejected. All cross-thread payload
// accesses are ordered by the state word: the enqueuer's Store(pending)
// releases the payload to the holder's claim CAS, and the holder's
// Store(done/rejected) releases the outcome back. A pending entry whose
// window has passed (the clock moved off its base) is retracted by its
// enqueuer via TryCancel; if a holder claimed it first, the enqueuer waits
// for the holder's verdict — claims are always resolved, on the holder's
// commit and abort paths both.
type CombineRing struct {
	slots [CombineSlots]combineEntry
}

// CombineSlots is the ring capacity: the most commits one group can batch,
// above the holder's own.
const CombineSlots = 8

const (
	combineFree uint32 = iota
	combineSetup
	combinePending
	combineClaimed
	combineDone
	combineRejected
)

type combineEntry struct {
	state atomic.Uint32
	// base is the even clock value the enqueuer's reads are valid at; only
	// a holder that locked the clock at exactly this base may claim. Atomic
	// because PendingAt reads it with no claim on the slot: its pending
	// state load can be followed by a cancel and a re-Enqueue that rewrites
	// base before PendingAt gets to it.
	base atomic.Uint64
	// writes aliases the enqueuer's buffer. The enqueuer must not touch it
	// between Enqueue and the slot's release — the protocol guarantees it
	// observes a terminal state (or cancels) before reusing the buffer.
	writes   []WriteEntry
	readSig  Signature
	writeSig Signature
}

// NewCombineRing returns an empty ring.
func NewCombineRing() *CombineRing { return new(CombineRing) }

// CombineOutcome is the enqueuer-visible state of a slot.
type CombineOutcome uint8

const (
	// CombinePending: no verdict yet — the entry is waiting for a holder or
	// claimed by one.
	CombinePending CombineOutcome = iota
	// CombineDone: a holder published the entry's writes; the transaction
	// has committed. Release the slot.
	CombineDone
	// CombineRejected: a holder claimed the entry but could not publish it
	// (its group aborted). Release the slot and restart the transaction.
	CombineRejected
)

// Enqueue publishes a pre-validated write set for group commit at the given
// snapshot base. It returns the slot index, or -1 when the ring is full.
// The caller must poll the slot to a terminal outcome (or TryCancel it)
// before reusing writes or enqueueing again.
func (r *CombineRing) Enqueue(base uint64, writes []WriteEntry, readSig, writeSig *Signature) int {
	for i := range r.slots {
		e := &r.slots[i]
		if e.state.Load() == combineFree && e.state.CompareAndSwap(combineFree, combineSetup) {
			e.base.Store(base)
			e.writes = writes
			e.readSig = *readSig
			e.writeSig = *writeSig
			e.state.Store(combinePending)
			return i
		}
	}
	return -1
}

// Poll reports slot's outcome.
func (r *CombineRing) Poll(slot int) CombineOutcome {
	switch r.slots[slot].state.Load() {
	case combineDone:
		return CombineDone
	case combineRejected:
		return CombineRejected
	default:
		return CombinePending
	}
}

// TryCancel retracts a still-pending entry, freeing its slot; it reports
// false when a holder has already claimed the entry, in which case the
// enqueuer must keep polling — the claim will be resolved.
func (r *CombineRing) TryCancel(slot int) bool {
	e := &r.slots[slot]
	if !e.state.CompareAndSwap(combinePending, combineSetup) {
		return false
	}
	e.writes = nil
	e.state.Store(combineFree)
	return true
}

// Release frees a slot after the enqueuer has observed a terminal outcome.
func (r *CombineRing) Release(slot int) {
	e := &r.slots[slot]
	e.writes = nil
	e.state.Store(combineFree)
}

// Drain claims every pending entry compatible with the holder's group and
// applies its writes. An entry is compatible when its base matches the
// holder's locked base and its read signature is disjoint from group — the
// accumulated write signature of the holder and every entry drained so far
// — which proves, with no false negatives by the bloom construction, that
// nothing already in the group wrote a line the entry read, so its
// enqueue-time validation still stands. Each claimed entry's write
// signature is folded into group before the next slot is examined, so
// entries admitted later are also checked against it (serial order: holder
// first, then claimed entries in ascending slot order).
//
// Claimed slots are recorded in *mask (bit i = slot i) as they are claimed,
// before apply runs, so a panic unwinding out of apply leaves *mask exactly
// describing the claims the caller must still Resolve. budget bounds the
// total write entries applied (a postfix holder has hardware capacity to
// respect); entries that would overflow it stay pending.
//
// Base-mismatched entries stay pending untouched. Signature-intersecting
// entries at the right base are rejected immediately: after this group
// publishes, their base is stale, so they could never commit later anyway —
// rejecting now spares their enqueuers a futile wait.
func (r *CombineRing) Drain(base uint64, group *Signature, budget int, mask *uint32, apply func(writes []WriteEntry)) int {
	claimed := 0
	for i := range r.slots {
		e := &r.slots[i]
		if e.state.Load() != combinePending || !e.state.CompareAndSwap(combinePending, combineClaimed) {
			continue
		}
		if e.base.Load() != base {
			e.state.Store(combinePending)
			continue
		}
		if e.readSig.Intersects(group) {
			e.state.Store(combineRejected)
			continue
		}
		if len(e.writes) > budget {
			e.state.Store(combinePending)
			continue
		}
		budget -= len(e.writes)
		*mask |= 1 << uint(i)
		claimed++
		group.Union(&e.writeSig)
		apply(e.writes)
	}
	return claimed
}

// PendingCount reports how many slots currently hold a pending entry — a
// diagnostic snapshot (immediately stale under concurrency) for tests and
// benchmark instrumentation, not a synchronization primitive.
func (r *CombineRing) PendingCount() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].state.Load() == combinePending {
			n++
		}
	}
	return n
}

// PendingAt reports how many pending entries carry exactly the given base —
// the holder's "is a batch forming for my window" signal. Like PendingCount
// it is a heuristic snapshot: a slot that is cancelled and recycled between
// the state load and the base load is counted under its new base, which
// merely skews a number that only paces the holder's linger.
func (r *CombineRing) PendingAt(base uint64) int {
	n := 0
	for i := range r.slots {
		e := &r.slots[i]
		if e.state.Load() == combinePending && e.base.Load() == base {
			n++
		}
	}
	return n
}

// Resolve moves every claimed slot in mask to done (ok) or rejected (the
// group aborted). Holders call it with ok=true after their publish is
// visible, and with ok=false on every abort path that may hold claims.
func (r *CombineRing) Resolve(mask uint32, ok bool) {
	st := combineRejected
	if ok {
		st = combineDone
	}
	for i := range r.slots {
		if mask&(1<<uint(i)) != 0 {
			r.slots[i].state.Store(st)
		}
	}
}
