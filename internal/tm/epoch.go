package tm

import (
	"sync"
	"sync/atomic"

	"rhnorec/internal/mem"
)

// Epoch-based reclamation for transactional memory blocks.
//
// Why it exists: several of the STMs here (TL2 in particular) let doomed
// transactions — ones that will fail validation — keep running briefly on a
// stale snapshot. If a block freed by a committed transaction were recycled
// and zeroed immediately, such a doomed reader could observe the new bytes
// without any validation trigger and wander off the data structure. The
// paper's C implementations face the same hazard and lean on allocator
// quiescence; we make the guarantee explicit: a freed block is recycled only
// after every thread has passed through a quiescent point (finished the
// transaction it was running when the block was freed).
//
// The scheme is classic three-bucket EBR. Threads pin the global epoch for
// the duration of each Run call; frees go into the bucket of the epoch they
// happened in; bucket e is recycled once the global epoch reaches e+2.

// block records one deferred free.
type block struct {
	addr mem.Addr
	n    int
}

// Reclaimer coordinates grace periods across the threads of one System.
type Reclaimer struct {
	mu    sync.Mutex
	slots []*Slot
	epoch atomic.Uint64
	// live counts the registered slots; software yield points pace only
	// while it is above one (ThreadBase.MaybeYield).
	live atomic.Int64
	// orphans holds the limbo of slots that unregistered while other
	// threads were still registered, bucketed like a slot's own limbo.
	orphans [3][]block
}

// NewReclaimer creates an empty reclaimer. The epoch starts at 1 so that a
// zero Slot state always means "quiescent".
func NewReclaimer() *Reclaimer {
	r := &Reclaimer{}
	r.epoch.Store(1)
	return r
}

// Epoch returns the current global epoch (for tests and introspection).
func (r *Reclaimer) Epoch() uint64 { return r.epoch.Load() }

// Register adds a participating thread and returns its slot. The slot's
// frees recycle into cache.
func (r *Reclaimer) Register(cache *mem.ThreadCache) *Slot {
	s := &Slot{r: r, cache: cache}
	r.live.Add(1)
	r.mu.Lock()
	r.slots = append(r.slots, s)
	r.mu.Unlock()
	return s
}

// unregister removes a slot. Its limbo is not yet past its grace period —
// a thread still registered may be a doomed transaction holding a pointer
// into it — so the reclaimer adopts it, and the epoch advances recycle it
// (tryAdvance). The last slot to leave recycles every limbo block at once:
// no transaction remains that could reach one.
func (r *Reclaimer) unregister(s *Slot) {
	r.live.Add(-1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, x := range r.slots {
		if x == s {
			r.slots[i] = r.slots[len(r.slots)-1]
			r.slots = r.slots[:len(r.slots)-1]
			break
		}
	}
	for b := range s.limbo {
		r.orphans[b] = append(r.orphans[b], s.limbo[b]...)
		s.limbo[b] = s.limbo[b][:0]
		if len(r.slots) == 0 {
			recycle(s.cache, &r.orphans[b])
		}
	}
}

// tryAdvance bumps the global epoch if every registered thread is either
// quiescent or already in the current epoch. An advance to e+1 ends the
// grace period of the orphans freed in epoch e-1; s, the advancing thread,
// takes them into its cache.
func (r *Reclaimer) tryAdvance(s *Slot) {
	e := r.epoch.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range r.slots {
		if st := x.state.Load(); st != 0 && st != e {
			return
		}
	}
	if r.epoch.CompareAndSwap(e, e+1) {
		recycle(s.cache, &r.orphans[(e+2)%3]) // (e+2)%3 == (e-1)%3
	}
}

// advancePeriod is how many deferred frees a slot accumulates before
// attempting an epoch advance.
const advancePeriod = 64

// Slot is one thread's participation handle. Not safe for concurrent use.
type Slot struct {
	r     *Reclaimer
	cache *mem.ThreadCache
	state atomic.Uint64 // 0 = quiescent, else the pinned epoch
	limbo [3][]block
	frees int
}

// Enter pins the current epoch for the duration of a transaction.
func (s *Slot) Enter() {
	for {
		e := s.r.epoch.Load()
		s.state.Store(e)
		if s.r.epoch.Load() == e {
			return
		}
		// The epoch advanced while we were pinning; re-pin at the newer
		// epoch so we never hold the reclaimer back spuriously.
	}
}

// Exit marks the thread quiescent.
func (s *Slot) Exit() {
	s.state.Store(0)
}

// Defer schedules a block for reclamation after the grace period.
func (s *Slot) Defer(a mem.Addr, n int) {
	if a == mem.Nil {
		return
	}
	e := s.r.epoch.Load()
	b := int(e % 3)
	s.limbo[b] = append(s.limbo[b], block{a, n})
	s.frees++
	if s.frees%advancePeriod == 0 {
		s.r.tryAdvance(s)
	}
	if e >= 3 {
		recycle(s.cache, &s.limbo[(e+1)%3]) // two epochs old: (e+1)%3 == (e-2)%3
	}
}

// recycle frees every block of a limbo bucket into c and empties it.
func recycle(c *mem.ThreadCache, bucket *[]block) {
	for _, blk := range *bucket {
		c.Free(blk.addr, blk.n)
	}
	*bucket = (*bucket)[:0]
}

// PendingBlocks reports how many blocks await reclamation (for tests).
func (s *Slot) PendingBlocks() int {
	return len(s.limbo[0]) + len(s.limbo[1]) + len(s.limbo[2])
}
