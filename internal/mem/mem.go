// Package mem provides the word-addressable shared memory on which every
// transactional-memory implementation in this repository operates.
//
// The memory plays the role of RAM in the reproduction: hardware
// transactions (package htm) speculate over it, software transactions read
// and write it directly, and non-transactional ("plain") code accesses it
// through the atomic helpers below. Real Haswell RTM detects conflicts per
// cache line, so the substrate mirrors that granularity: the word array is
// partitioned into Stripes padded stripes (line-interleaved), each with its own
// seqlock version clock and writeback mutex. A mutation only perturbs the
// stripes it touches, so disjoint-line commits proceed in parallel and only
// transactions whose footprint intersects a mutated stripe revalidate.
//
// Three properties are load-bearing for the rest of the system:
//
//  1. Each stripe clock is a seqlock: every mutation of a word moves its
//     stripe's clock to an odd value before the store and back to an even
//     value afterwards, and a failed (nothing-published) commit that opened
//     a window restores the clock to its prior even value. A reader that
//     observes an even, unchanged stripe clock around a read therefore
//     observed stable words: an unchanged even clock proves no store
//     happened in that stripe in between.
//  2. HTM commits publish their entire write buffer while holding the
//     writeback locks of every touched stripe — the same locks plain
//     mutators take — with all touched windows open, and LoadPlain reads
//     under the seqlock, so a commit is atomic with respect to all other
//     memory traffic (strong isolation).
//     Multi-stripe lock acquisition is in canonical ascending stripe order,
//     which makes it deadlock-free. A read-only htm commit publishes
//     nothing and never reaches CommitWrites: it sweeps its own stripes
//     under the per-stripe seqlock read protocol.
//  3. A global commit ticket (an atomic counter, never a lock) counts
//     publishes for event stamping and linearization ordering. A publish
//     retires its ticket inside its seqlock window — after its last store,
//     before its first window closes — so a reader that finds a published
//     value under an even stripe clock also finds the ticket advanced, and
//     an unchanged ticket proves no publish closed a window in between
//     (package htm's snapshot-extension gate rests on this). The ticket
//     is a monotonic publish counter only — NOT a seqlock, and never
//     waited on; cross-stripe consistency always comes from the
//     per-stripe clocks.
//
// The word array is an anonymous private mapping where the platform has one
// (arena_mmap.go) and the build is not -race; elsewhere, and if mmap fails,
// it is Go heap. A mapped arena's pages are zero-filled by the kernel on
// first touch, so a Memory costs the pages stored to, not its size, and an
// unreachable Memory's arena is unmapped at the first collection after it
// became unreachable (by a finalizer, so shortly after that collection ends).
// Every method that indexes the array therefore ends with
// runtime.KeepAlive(m): the arena must outlive each access to it.
package mem

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Addr is a word index into a Memory. Address 0 is reserved and is never
// returned by the allocator, so it can serve as a nil pointer when
// applications store addresses inside transactional memory.
type Addr uint64

// Nil is the reserved null address.
const Nil Addr = 0

// LineWords is the number of 8-byte words per simulated cache line (64-byte
// lines, matching the Haswell L1 the paper evaluates on). HTM capacity is
// accounted in distinct lines, as real transactional caches do.
const LineWords = 8

// lineShift is log2(LineWords).
const lineShift = 3

// Line identifies a cache line within a Memory.
type Line uint64

// LineOf returns the cache line containing addr.
func LineOf(a Addr) Line { return Line(a >> lineShift) }

// Stripes is the number of seqlock stripes, the simulator's stand-in for
// the cache line the paper's hardware detects conflicts at. 64 keeps every
// touched-stripe set in one bitmap word while making same-stripe collisions
// of disjoint-line commits rare at benchmark thread counts.
const Stripes = 64

// stripe is one seqlock-protected partition of the word array. The padding
// gives every stripe its own cache line so clock traffic on one stripe does
// not false-share with its neighbours.
type stripe struct {
	clock atomic.Uint64
	wb    sync.Mutex
	_     [48]byte
}

// HookOp identifies which substrate boundary a Hook observes.
type HookOp uint8

const (
	// HookLoad fires before a plain atomic load.
	HookLoad HookOp = iota
	// HookStore fires before a plain atomic store takes its stripe lock.
	HookStore
	// HookCAS fires before a plain compare-and-swap takes its stripe lock.
	HookCAS
	// HookAdd fires before a plain fetch-and-add takes its stripe lock.
	HookAdd
	// HookCommit fires before CommitWrites locks the touched stripes.
	HookCommit
)

// Hook receives control at substrate boundaries. The deterministic schedule
// explorer (internal/explore) installs one to serialize worker goroutines:
// Yield parks the calling goroutine until an external scheduler resumes it.
//
// AtomicBegin/AtomicEnd bracket regions where the caller holds stripe
// writeback locks with seqlock windows open (the locked span of
// CommitWrites). Yield must not park inside such a region — a parked holder
// would hang every seqlock reader — so hooks suppress yields between the
// two calls. The bracket is maintained by this package; hook implementations
// only need to honor it.
type Hook interface {
	Yield(op HookOp, a Addr)
	AtomicBegin()
	AtomicEnd()
}

// Memory is a flat array of 64-bit words striped over per-line seqlocks.
// All fields are private; access goes through the methods below so that the
// clock discipline can never be bypassed by accident.
type Memory struct {
	words   []uint64
	arena   *mapping // owns words when it is mapped (newWords); nil on the heap
	stripes []stripe // Stripes of them

	// frontier is one past the highest address any store has reached: every
	// word at or above it still reads zero, as a new arena does. A store
	// raises it before it writes, so the allocator, which clears only below
	// it, never hands out a block a store dirtied (see raise). Read on every
	// store and written almost never, it sits with the read-mostly fields,
	// off ticket's line.
	frontier atomic.Uint64

	// ticket counts publishes (plain mutations and commit write-backs).
	// It orders events for observability but carries no seqlock meaning.
	ticket atomic.Uint64

	// hook, when non-nil, observes every plain access and commit (see Hook).
	// Costs one nil check per operation when unset.
	hook Hook

	// persister, when non-nil, receives every committed write set before its
	// windows close (see Persister). Costs one nil check per commit when
	// unset, which keeps the persistence-off hot path allocation- and
	// branch-identical to before.
	persister Persister

	alloc allocState
}

// Persister consumes committed write sets for the durability plane
// (internal/persist implements it with a one-file redo log). Append is
// called inside CommitWrites' locked span — after the stores, before the
// seqlock windows close — so no reader can certify a read of the commit's
// values before the commit is in the log. Software paths that publish with
// plain stores reach it through AppendRedo, whose one caller is
// tm.WriteLog.Seal, under the same ordering obligation. Append must not
// block on I/O and must not touch the memory it persists.
type Persister interface {
	Append(ticket uint64, writes []WriteEntry)
}

// New creates a memory of the given size in words. The first line is
// reserved (address 0 is nil), so the usable arena starts at LineWords.
func New(sizeWords int) *Memory {
	if sizeWords < 2*LineWords {
		sizeWords = 2 * LineWords
	}
	m := &Memory{stripes: make([]stripe, Stripes)}
	m.words, m.arena = newWords(sizeWords)
	m.alloc.init(Addr(LineWords), Addr(sizeWords))
	return m
}

// SetHook installs (or, with nil, removes) the substrate hook. It must be
// called while no other goroutine is accessing the memory; the explorer
// installs it before starting its workers.
func (m *Memory) SetHook(h Hook) { m.hook = h }

// SetPersister attaches (or, with nil, detaches) the durability plane. Like
// SetHook it must be called while no other goroutine is accessing the
// memory: servers attach after boot-time recovery and detach only after
// draining every committer.
func (m *Memory) SetPersister(p Persister) { m.persister = p }

// Persisting reports whether a persister is attached; tm.WriteLog consults
// it before keeping or assembling anything for a redo record.
func (m *Memory) Persisting() bool { return m.persister != nil }

// AppendRedo hands a write set published by plain stores to the attached
// persister (no-op when none is attached). It must be given the final value
// of every written word *before* the lock that hides those values from
// committing readers is released. tm.WriteLog.Seal is its only caller: every
// driver's software path stores through that log and seals it at its commit
// point.
func (m *Memory) AppendRedo(writes []WriteEntry) {
	if m.persister != nil {
		m.persister.Append(m.ticket.Load()+1, writes)
	}
}

// AllocMark returns the bump-arena watermark: every address below it was
// handed out (or reserved) already, every address at or above it is still
// virgin arena. The persistence plane uses it to bound the data range to
// persist, excluding the TM metadata words allocated before it.
func (m *Memory) AllocMark() Addr {
	m.alloc.mu.Lock()
	defer m.alloc.mu.Unlock()
	return m.alloc.next
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return len(m.words) }

// StripeOf returns the stripe index of addr. Stripes interleave by cache
// line: consecutive lines land on consecutive stripes, so a contiguous
// multi-line footprint spreads across stripes the way it spreads across
// cache sets in hardware.
func (m *Memory) StripeOf(a Addr) int { return int((uint64(a) >> lineShift) % Stripes) }

// StripeClock returns the current seqlock clock of stripe s. Odd means a
// mutation window is open. Readers needing a consistent view of words in s
// use the seqlock read protocol: observe an even value, read, observe the
// same value.
func (m *Memory) StripeClock(s int) uint64 { return m.stripes[s].clock.Load() }

// Ticket returns the global commit ticket: the number of publishes (plain
// mutations and commit write-backs) that have stored all their words. It is
// monotonic and lock-free, suitable for stamping events into a global
// order, but it is not a seqlock — use the per-stripe clocks for
// consistency.
func (m *Memory) Ticket() uint64 { return m.ticket.Load() }

// beginMutate takes addr's stripe writeback lock and opens its seqlock
// write window; endMutate retires a ticket, closes the window, and releases
// the lock — in that order (package doc, property 3). Every unconditional
// single-word mutation is bracketed by this pair; conditional mutators
// (CASPlain) take the lock first and open the window only once they know
// they will mutate.
func (m *Memory) beginMutate(s *stripe) {
	s.wb.Lock()
	s.clock.Add(1)
}

func (m *Memory) endMutate(s *stripe) {
	m.ticket.Add(1)
	s.clock.Add(1)
	s.wb.Unlock()
}

// raise lifts the touched frontier to at least top, one past the highest
// address a store is about to write. It runs before the store, so whoever
// observes the stored word, the allocator included, observes the frontier
// too. When the frontier is already at or above top, as it is for a store
// below any earlier one, raise costs that one load.
func (m *Memory) raise(top uint64) {
	for {
		f := m.frontier.Load()
		if top <= f || m.frontier.CompareAndSwap(f, top) {
			return
		}
	}
}

// check panics on an address outside the arena. The message is built out of
// line, in outOfRange, so that check inlines into every plain access.
func (m *Memory) check(a Addr) {
	if a == Nil || int(a) >= len(m.words) {
		m.outOfRange(a)
	}
}

//go:noinline
func (m *Memory) outOfRange(a Addr) {
	panic(fmt.Sprintf("mem: address %d out of range [%d, %d)", a, LineWords, len(m.words)))
}

// LoadPlain performs a non-transactional atomic read of a word under the
// seqlock read protocol of its stripe: it returns a value only when it read
// an even, unchanged stripe clock around the load, so it never returns a
// word of a CommitWrites buffer that is still being published. CommitWrites
// opens the windows of every stripe it touches before its first store and
// closes them after its last, so a caller that gets a committed value back
// also finds every other word of that commit — a TM's clock or version word
// included — already in memory: a hardware commit is one step to every
// plain reader, as it is on real hardware. (A plain store's one-word window
// makes it wait a few cycles and nothing more.) To the explorer it is one
// mem-load yield point, and since no yield point sits inside an open
// window, under the explorer it never retries.
func (m *Memory) LoadPlain(a Addr) uint64 {
	m.check(a)
	if h := m.hook; h != nil {
		h.Yield(HookLoad, a)
	}
	c := &m.stripes[m.StripeOf(a)].clock
	for {
		c0 := c.Load()
		v := atomic.LoadUint64(&m.words[a])
		if c0&1 == 0 && c.Load() == c0 {
			runtime.KeepAlive(m)
			return v
		}
		runtime.Gosched() // a write-back is publishing into this stripe
	}
}

// LoadTorn is LoadPlain without the seqlock: a bare atomic read that can
// return one word of a commit whose other words are not yet in memory.
// Package htm is its only caller, for two reasons: Txn.Load runs the stripe
// seqlock protocol around it itself, and the commit validation re-checks
// reads on stripes whose windows the committing thread holds open, where a
// seqlocked load would spin forever. It yields to the hook as LoadPlain
// does.
func (m *Memory) LoadTorn(a Addr) uint64 {
	m.check(a)
	if h := m.hook; h != nil {
		h.Yield(HookLoad, a)
	}
	v := atomic.LoadUint64(&m.words[a])
	runtime.KeepAlive(m)
	return v
}

// StorePlain performs a non-transactional atomic write of a word under the
// seqlock discipline of its stripe — only that stripe's clock moves, so
// stores to distinct stripes neither contend nor invalidate each other's
// readers.
func (m *Memory) StorePlain(a Addr, v uint64) {
	m.check(a)
	if h := m.hook; h != nil {
		h.Yield(HookStore, a)
	}
	m.raise(uint64(a) + 1)
	s := &m.stripes[m.StripeOf(a)]
	m.beginMutate(s)
	atomic.StoreUint64(&m.words[a], v)
	m.endMutate(s)
	runtime.KeepAlive(m)
}

// CASPlain performs a non-transactional compare-and-swap. The stripe clock
// advances only when the swap succeeds: the comparison runs under the
// stripe's writeback lock, and the seqlock window opens only for the actual
// store.
func (m *Memory) CASPlain(a Addr, old, new uint64) bool {
	m.check(a)
	if h := m.hook; h != nil {
		h.Yield(HookCAS, a)
	}
	m.raise(uint64(a) + 1)
	s := &m.stripes[m.StripeOf(a)]
	s.wb.Lock()
	if atomic.LoadUint64(&m.words[a]) != old {
		s.wb.Unlock()
		runtime.KeepAlive(m)
		return false
	}
	s.clock.Add(1)
	atomic.StoreUint64(&m.words[a], new)
	m.endMutate(s)
	runtime.KeepAlive(m)
	return true
}

// AddPlain performs a non-transactional atomic fetch-and-add and returns the
// new value.
func (m *Memory) AddPlain(a Addr, delta uint64) uint64 {
	m.check(a)
	if h := m.hook; h != nil {
		h.Yield(HookAdd, a)
	}
	m.raise(uint64(a) + 1)
	s := &m.stripes[m.StripeOf(a)]
	m.beginMutate(s)
	v := atomic.LoadUint64(&m.words[a]) + delta
	atomic.StoreUint64(&m.words[a], v)
	m.endMutate(s)
	runtime.KeepAlive(m)
	return v
}

// SubPlain performs a non-transactional atomic fetch-and-subtract and
// returns the new value.
func (m *Memory) SubPlain(a Addr, delta uint64) uint64 {
	return m.AddPlain(a, ^(delta - 1)) // two's-complement subtraction
}

// loadRaw reads a word without bounds checking; used on the commit path
// where addresses were validated at log time.
func (m *Memory) loadRaw(a Addr) uint64 {
	v := atomic.LoadUint64(&m.words[a])
	runtime.KeepAlive(m)
	return v
}

// WriteEntry is one buffered speculative write, as published by CommitWrites.
type WriteEntry struct {
	Addr  Addr
	Value uint64
}

// CommitWrites atomically publishes a non-empty speculative write buffer.
// It takes the writeback locks of every touched stripe in canonical
// ascending index order (so concurrent multi-stripe commits cannot
// deadlock), opens all their seqlock windows, calls validate, and on success
// stores every entry, retires one ticket, and closes the windows. It reports
// whether the commit succeeded.
//
// The windows are open *during* validation so that a validating reader in
// another thread cannot certify its read set between this commit's
// validation and its publish: any stripe this commit will mutate already
// reads odd. validate therefore must not use the seqlock read protocol on
// the touched stripes (it would spin forever); the htm commit path checks
// reads in its own write stripes by value directly, which is stable because
// this thread holds their locks and has published nothing yet.
//
// On validation failure nothing has been stored, so each opened window is
// restored by moving the clock back to its prior even value. A clock that
// returns to the same even value therefore still certifies "no store
// happened" to seqlock readers — restores only occur on publish-free paths.
func (m *Memory) CommitWrites(writes []WriteEntry, validate func() bool) bool {
	// touched has bit s set for every written stripe s; each phase below
	// walks it lowest stripe first.
	var touched uint64
	var top Addr
	for i := range writes {
		touched |= 1 << m.StripeOf(writes[i].Addr)
		top = max(top, writes[i].Addr)
	}
	h := m.hook
	if h != nil {
		h.Yield(HookCommit, writes[0].Addr)
		// The locked span below runs validate with windows open; a parked
		// holder would hang every seqlock reader, so nested yields (the
		// LoadTorns of the commit validation) are suppressed until the
		// locks drop.
		h.AtomicBegin()
	}
	for b := touched; b != 0; b &= b - 1 {
		m.stripes[bits.TrailingZeros64(b)].wb.Lock()
	}
	for b := touched; b != 0; b &= b - 1 {
		m.stripes[bits.TrailingZeros64(b)].clock.Add(1)
	}
	ok := validate == nil || validate()
	if ok {
		m.raise(uint64(top) + 1)
		for _, w := range writes {
			atomic.StoreUint64(&m.words[w.Addr], w.Value)
		}
		if m.persister != nil {
			// Log before the windows close: a reader can only certify a read
			// of these values after the clocks return even, which is after the
			// record exists — so the log's sequence order extends every
			// reads-from edge and replaying a sequence prefix is consistent.
			m.persister.Append(m.ticket.Load()+1, writes)
		}
		// The ticket retires before any window closes (package doc,
		// property 3).
		m.ticket.Add(1)
		for b := touched; b != 0; b &= b - 1 {
			m.stripes[bits.TrailingZeros64(b)].clock.Add(1)
		}
	} else {
		// Nothing was published: restore every window to its prior even
		// value instead of closing it forward, so readers watermarked at
		// that value are not forced into a spurious revalidation.
		for b := touched; b != 0; b &= b - 1 {
			m.stripes[bits.TrailingZeros64(b)].clock.Add(^uint64(0))
		}
	}
	for b := touched; b != 0; b &= b - 1 {
		m.stripes[bits.TrailingZeros64(b)].wb.Unlock()
	}
	if h != nil {
		h.AtomicEnd()
	}
	runtime.KeepAlive(m)
	return ok
}

// stripeClockStable spins until stripe s's clock is even (no mutation in
// flight) and returns that stable value.
func (m *Memory) stripeClockStable(s int) uint64 {
	for {
		c := m.stripes[s].clock.Load()
		if c&1 == 0 {
			return c
		}
		runtime.Gosched()
	}
}

// Snapshot copies len(dst) words starting at a into dst as one consistent
// snapshot: it records a stable clock vector for every stripe the range
// touches, copies, and retries until no touched stripe's clock moved across
// the copy. Each unchanged even stripe clock proves no store landed in that
// stripe during the copy, so the words in dst coexisted in memory at every
// instant of the copy interval. Multi-word test assertions use this instead
// of per-word plain loads, which can tear against concurrent commits.
func (m *Memory) Snapshot(a Addr, dst []uint64) {
	m.snapshot(a, 1, dst, 0)
}

// SnapshotStrideTry is Snapshot over a strided footprint with a bounded
// retry budget: dst[i] is filled from address a + i*stride, and at most
// attempts seqlock-validated copy passes are made. It reports whether one of
// them was clean (every touched stripe clock unchanged across the copy — the
// per-stripe seqlock read protocol, so a true return certifies dst is a
// consistent cut of memory). A false return means a
// concurrent writer dirtied every pass and dst must be discarded. Validation
// is O(touched stripes) per pass, not O(words). attempts and stride below 1
// are treated as 1. The benchmark's mem.snapshot_stride_16_ns probe prices
// it; it reads one word per cache line, as a key-range scan over a
// line-per-key layout would.
func (m *Memory) SnapshotStrideTry(a Addr, stride int, dst []uint64, attempts int) bool {
	if attempts < 1 {
		attempts = 1
	}
	if stride < 1 {
		stride = 1
	}
	return m.snapshot(a, stride, dst, attempts)
}

// snapshotTestHook, when non-nil, runs once per snapshot pass between the
// copy and the clock recheck. It exists so tests can dirty a touched stripe
// at the exact point a concurrent commit would, deterministically even on
// GOMAXPROCS=1 (one nil check per pass; always nil outside tests).
var snapshotTestHook func()

// snapshot is the shared bounded/unbounded copy loop; attempts == 0 retries
// forever (the Snapshot contract) and always returns true. The loop is
// deliberately closure-free so that a call does not heap-allocate (marks
// escaping into a closure would drag it onto the heap per call).
func (m *Memory) snapshot(a Addr, stride int, dst []uint64, attempts int) bool {
	if len(dst) == 0 {
		return true
	}
	last := a + Addr((len(dst)-1)*stride)
	m.check(a)
	m.check(last)
	var touched uint64
	if stride == 1 {
		for l := uint64(a) >> lineShift; l <= uint64(last)>>lineShift; l++ {
			touched |= 1 << (l % Stripes)
		}
	} else {
		for i := range dst {
			touched |= 1 << m.StripeOf(a+Addr(i*stride))
		}
	}
	var marks [Stripes]uint64
	for try := 0; attempts == 0 || try < attempts; try++ {
		for b := touched; b != 0; b &= b - 1 {
			s := bits.TrailingZeros64(b)
			marks[s] = m.stripeClockStable(s)
		}
		for i := range dst {
			dst[i] = m.loadRaw(a + Addr(i*stride))
		}
		if snapshotTestHook != nil {
			snapshotTestHook()
		}
		clean := true
		for b := touched; b != 0; b &= b - 1 {
			s := bits.TrailingZeros64(b)
			if m.stripes[s].clock.Load() != marks[s] {
				clean = false
			}
		}
		if clean {
			return true
		}
		runtime.Gosched()
	}
	return false
}
