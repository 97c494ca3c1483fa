// Package tl2 implements the TL2 STM of Dice, Shalev and Shavit in the
// eager encounter-time-write flavour the paper benchmarks (§3.1, "TL2"):
// per-stripe versioned write-locks, a global version clock, direct memory
// writes under stripe locks with an undo log, and commit-time read-set
// revalidation.
//
// Compared to NOrec, TL2 pays per-location metadata costs on every access
// but scales better under write load because disjoint writers never
// invalidate each other. It does not provide privatization safety (doomed
// writers may still be mid-undo when a privatizer starts reading
// non-transactionally) — the same limitation the paper notes for TL2-style
// systems.
package tl2

import (
	"runtime"
	"sync/atomic"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// DefaultStripes is the default size of the stripe (ownership) table.
const DefaultStripes = 1 << 16

// System is a TL2 STM over one shared memory.
type System struct {
	tm.SystemBase

	// stripes maps cache lines to versioned locks. Even value: version<<1.
	// Odd value: threadID<<1|1 (locked).
	stripes []atomic.Uint64
	mask    uint64

	// gv is the global version clock; it counts writer commits.
	gv atomic.Uint64

	// pace is a word of m no transaction writes. The stripe table and gv
	// are sync/atomic, not mem words, so an attempt that restarts off a
	// stripe locked by a descheduled writer would otherwise re-run without
	// passing one hooked memory operation; a re-begun attempt loads pace so
	// a deterministic scheduler (internal/explore) regains control between
	// restarts, as it does on every spin of the clock-based drivers.
	pace mem.Addr

	nextThreadID atomic.Uint64
}

// New creates a TL2 system with the given stripe count (rounded up to a
// power of two; 0 means DefaultStripes).
func New(m *mem.Memory, stripeCount int) *System {
	if stripeCount <= 0 {
		stripeCount = DefaultStripes
	}
	n := 1
	for n < stripeCount {
		n <<= 1
	}
	return &System{
		SystemBase: tm.NewSystemBase("tl2", m),
		stripes:    make([]atomic.Uint64, n),
		mask:       uint64(n - 1),
		pace:       m.NewThreadCache().Alloc(mem.LineWords),
	}
}

// stripeOf maps an address to its stripe index (one stripe per cache line,
// modulo table size).
func (s *System) stripeOf(a mem.Addr) uint64 {
	return uint64(mem.LineOf(a)) & s.mask
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{
		ThreadBase: s.NewThreadBase(),
		sys:        s,
		id:         s.nextThreadID.Add(1),
		owned:      make(map[uint64]uint64, 16),
	}
	t.Bind(t, nil)
	return t
}

type thread struct {
	tm.ThreadBase
	sys *System
	id  uint64

	rv       uint64            // read version (gv snapshot)
	readSet  []uint64          // stripe indices read
	readSeen map[uint64]bool   // nil until first use; avoids dup stripes
	owned    map[uint64]uint64 // stripe -> pre-lock value (version<<1)
}

// BeginSlow starts one try: back off for the restarts behind it, then
// sample the read version.
func (t *thread) BeginSlow(try int) (tm.Tx, bool) {
	// Bounded randomized-ish backoff keeps two writers from live-locking
	// on crossed stripe locks.
	for i := 0; i < (try-1)&7; i++ {
		runtime.Gosched()
	}
	if try > 1 {
		t.M.LoadPlain(t.sys.pace)
	}
	t.rv = t.sys.gv.Load()
	t.readSet = t.readSet[:0]
	clear(t.readSeen)
	clear(t.owned)
	return txView{t}, false
}

func (t *thread) EndSlow() {}

// AbortSlow releases the stripe locks over the rolled-back memory,
// restoring their pre-lock versions.
func (t *thread) AbortSlow(*htm.Abort) {
	for idx, old := range t.owned {
		t.sys.stripes[idx].Store(old)
	}
	clear(t.owned)
}

// CommitSlow is the TL2 commit point: advance the clock, revalidate the
// read set, release the write stripes at the new version.
func (t *thread) CommitSlow() {
	if len(t.owned) == 0 {
		// Read-only transactions validated every read against rv and need
		// no commit-time work — the classic TL2 fast read-only commit.
		return
	}
	wv := t.sys.gv.Add(1)
	// TL2 optimization: if wv == rv+1 no concurrent writer committed since
	// our snapshot, so the read set cannot have changed.
	if wv != t.rv+1 {
		for _, idx := range t.readSet {
			s := t.sys.stripes[idx].Load()
			if s&1 == 1 {
				if s != t.id<<1|1 {
					tm.Restart() // locked by another writer
				}
				continue // our own write stripe
			}
			if s>>1 > t.rv {
				tm.Restart()
			}
		}
	}
	// Publish: release every owned stripe at the new version.
	t.Log.Seal()
	for idx := range t.owned {
		t.sys.stripes[idx].Store(wv << 1)
	}
	clear(t.owned)
}

type txView struct{ t *thread }

func (v txView) Load(a mem.Addr) uint64 {
	t := v.t
	t.InstrumentedAccess()
	idx := t.sys.stripeOf(a)
	if _, mine := t.owned[idx]; mine {
		// We hold the stripe: memory reflects our snapshot plus our own
		// writes (the lock acquisition verified version <= rv).
		return t.M.LoadPlain(a)
	}
	for {
		s1 := t.sys.stripes[idx].Load()
		if s1&1 == 1 {
			tm.Restart() // locked by a writer
		}
		val := t.M.LoadPlain(a)
		s2 := t.sys.stripes[idx].Load()
		if s1 != s2 {
			continue // raced with a lock/release; re-sample
		}
		if s1>>1 > t.rv {
			tm.Restart() // stripe newer than our snapshot
		}
		if t.readSeen == nil {
			t.readSeen = make(map[uint64]bool, 64)
		}
		if !t.readSeen[idx] {
			t.readSeen[idx] = true
			t.readSet = append(t.readSet, idx)
		}
		return val
	}
}

func (v txView) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	t.InstrumentedAccess()
	idx := t.sys.stripeOf(a)
	if _, mine := t.owned[idx]; !mine {
		s := t.sys.stripes[idx].Load()
		if s&1 == 1 {
			tm.Restart() // try-lock failure: release everything and retry
		}
		if s>>1 > t.rv {
			// Locking a stripe newer than our snapshot would let later
			// reads of its other words return post-snapshot data.
			tm.Restart()
		}
		if !t.sys.stripes[idx].CompareAndSwap(s, t.id<<1|1) {
			tm.Restart()
		}
		t.owned[idx] = s
	}
	t.Log.StoreEager(a, val)
}

func (v txView) Alloc(n int) mem.Addr   { return v.t.TxAlloc(n) }
func (v txView) Free(a mem.Addr, n int) { v.t.TxFree(a, n) }
