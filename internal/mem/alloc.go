package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The allocator hands out blocks of transactional memory. It follows the
// tcmalloc design the paper adopts in §3.2 after finding the system malloc
// "does not scale and imposes high overheads and many false aborts":
// allocations are served from per-thread caches grouped into size classes,
// which refill from (and overflow to) central free lists in batches, and the
// central lists carve fresh runs from a bump arena.
//
// Blocks handed out by Alloc read zero, recycled and freshly carved ones
// alike. A Memory keeps a touched frontier, one past the highest address any
// store has reached (StorePlain, CASPlain, AddPlain or a CommitWrites
// publish), and every word at or above it still reads zero as the new arena
// did. Alloc clears a block's words below the frontier with one bulk clear
// and leaves the rest untouched, so a block carved wholly above it, such as
// a service's key range at boot, costs no clear and no page faults. A store
// above AllocMark raises the frontier like any other, so a block it dirtied
// is cleared when carved.
//
// Zeroing happens without advancing the memory clock and without atomic
// stores, which is safe because a block is only recycled after the TM
// layer's epoch-based reclamation (package tm) has established that no
// transaction — not even a doomed one still running on a stale snapshot —
// can hold a reference to it, and a fresh carve was never handed out at
// all.

// classSizes lists the allocation size classes in words, tcmalloc-style
// (powers of two with midpoints). Requests above the largest class are
// served exactly from the arena and recycled on an exact-size central list.
var classSizes = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096}

const numClasses = 24

// refillBatch is how many blocks a thread cache pulls from the central list
// at a time; smaller for large classes to bound cached memory.
func refillBatch(class int) int {
	b := 64 >> (classSizes[class] / 64)
	if b < 2 {
		b = 2
	}
	return b
}

// classFor maps a word count to the smallest size class that fits, or -1 for
// oversized requests.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

type allocState struct {
	mu      sync.Mutex
	next    Addr
	end     Addr
	central [numClasses][]Addr
	huge    map[int][]Addr

	liveBlocks atomic.Int64
	liveWords  atomic.Int64
}

func (s *allocState) init(start, end Addr) {
	s.next = start
	s.end = end
	s.huge = make(map[int][]Addr)
}

// carve takes n words from the bump arena. Callers hold s.mu.
func (s *allocState) carve(n int) (Addr, bool) {
	if s.next+Addr(n) > s.end {
		return Nil, false
	}
	a := s.next
	s.next += Addr(n)
	return a, true
}

// ThreadCache is a per-thread allocation cache. Each worker thread (each
// ThreadCtx in package tm) owns exactly one; its methods must not be called
// concurrently. Blocks freed on one thread may be reused by another, but
// only via the central lists.
type ThreadCache struct {
	mem  *Memory
	bins [numClasses][]Addr
}

// NewThreadCache creates a thread-local allocation cache over m.
func (m *Memory) NewThreadCache() *ThreadCache {
	return &ThreadCache{mem: m}
}

// Alloc returns a zeroed block of at least nWords words. It panics if the
// arena is exhausted, which in this simulator indicates an undersized
// Memory rather than a recoverable condition.
func (c *ThreadCache) Alloc(nWords int) Addr {
	if nWords <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	s := &c.mem.alloc
	cl := classFor(nWords)
	if cl < 0 {
		s.mu.Lock()
		var a Addr
		if lst := s.huge[nWords]; len(lst) > 0 {
			a = lst[len(lst)-1]
			s.huge[nWords] = lst[:len(lst)-1]
		} else {
			var ok bool
			a, ok = s.carve(nWords)
			if !ok {
				s.mu.Unlock()
				panic(fmt.Sprintf("mem: arena exhausted allocating %d words", nWords))
			}
		}
		s.mu.Unlock()
		c.finish(a, nWords)
		return a
	}
	sz := classSizes[cl]
	if len(c.bins[cl]) == 0 {
		c.refill(cl)
	}
	bin := c.bins[cl]
	a := bin[len(bin)-1]
	c.bins[cl] = bin[:len(bin)-1]
	c.finish(a, sz)
	return a
}

// finish zeroes the block of sz words at a, to be handed out, and counts it
// live. Only the words below the touched frontier can be nonzero, so only
// those are cleared: a block that starts at or above it is left as it is.
func (c *ThreadCache) finish(a Addr, sz int) {
	c.mem.zeroRange(a, sz)
	c.mem.alloc.liveBlocks.Add(1)
	c.mem.alloc.liveWords.Add(int64(sz))
}

// refill pulls a batch of blocks of the given class from the central list,
// carving fresh ones from the arena as needed.
func (c *ThreadCache) refill(cl int) {
	s := &c.mem.alloc
	sz := classSizes[cl]
	want := refillBatch(cl)
	s.mu.Lock()
	central := s.central[cl]
	take := want
	if take > len(central) {
		take = len(central)
	}
	c.bins[cl] = append(c.bins[cl], central[len(central)-take:]...)
	s.central[cl] = central[:len(central)-take]
	for got := take; got < want; got++ {
		a, ok := s.carve(sz)
		if !ok {
			if got == 0 {
				s.mu.Unlock()
				panic(fmt.Sprintf("mem: arena exhausted allocating %d words", sz))
			}
			break
		}
		c.bins[cl] = append(c.bins[cl], a)
	}
	s.mu.Unlock()
}

// Free returns a block obtained from Alloc with the same size. The block's
// contents are left intact (see the package comment for why); it is zeroed
// again when recycled. Callers are responsible for ensuring no transaction
// can still reference the block — in this repository that guarantee comes
// from tm's epoch-based reclamation, so application code should free through
// tm.Tx.Free rather than calling this directly.
func (c *ThreadCache) Free(a Addr, nWords int) {
	if a == Nil {
		return
	}
	s := &c.mem.alloc
	cl := classFor(nWords)
	if cl < 0 {
		s.mu.Lock()
		s.huge[nWords] = append(s.huge[nWords], a)
		s.mu.Unlock()
	} else {
		sz := classSizes[cl]
		c.bins[cl] = append(c.bins[cl], a)
		if limit := 2 * refillBatch(cl); len(c.bins[cl]) > limit {
			c.flush(cl, limit/2)
		}
		nWords = sz
	}
	s.liveBlocks.Add(-1)
	s.liveWords.Add(-int64(nWords))
}

// flush returns keep..len blocks of class cl to the central list.
func (c *ThreadCache) flush(cl, keep int) {
	s := &c.mem.alloc
	bin := c.bins[cl]
	s.mu.Lock()
	s.central[cl] = append(s.central[cl], bin[keep:]...)
	s.mu.Unlock()
	c.bins[cl] = bin[:keep]
}

// Drain returns every cached block to the central lists. Tests use it to
// verify that live-block accounting balances.
func (c *ThreadCache) Drain() {
	for cl := range c.bins {
		if len(c.bins[cl]) > 0 {
			c.flush(cl, 0)
		}
	}
}

// LiveBlocks reports the number of blocks currently allocated and not freed.
func (m *Memory) LiveBlocks() int64 { return m.alloc.liveBlocks.Load() }

// LiveWords reports the number of words currently allocated and not freed.
func (m *Memory) LiveWords() int64 { return m.alloc.liveWords.Load() }

// zeroRange makes the n words starting at a read zero, clearing with one
// bulk clear those below the touched frontier, without advancing the memory
// clock. Only the allocator may call it, and only on quiescent blocks: no
// transaction can hold the block's address (see the zeroing comment at the
// top of this file), so no load races the plain stores.
func (m *Memory) zeroRange(a Addr, n int) {
	if end := min(a+Addr(n), Addr(m.frontier.Load())); a < end {
		clear(m.words[a:end])
	}
	runtime.KeepAlive(m)
}
