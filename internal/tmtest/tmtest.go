// Package tmtest provides a conformance suite that every transactional
// memory system in this repository must pass. Each algorithm package runs
// the suite from its own tests via RunConformance, so safety properties
// (atomicity, isolation, opacity, read-own-writes, user aborts, allocation
// semantics, privatization) are exercised uniformly across Lock Elision,
// NOrec, TL2, Hybrid NOrec and RH NOrec.
package tmtest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// Factory builds the system under test over a fresh memory.
type Factory func(m *mem.Memory) tm.System

// Options tunes the suite for a particular algorithm.
type Options struct {
	// Threads is the worker count for concurrent subtests (default 4).
	Threads int
	// Ops is the per-thread operation count (default 300).
	Ops int
	// SkipPrivatization skips the privatization subtest for algorithms
	// that do not claim the property.
	SkipPrivatization bool
	// NondeterministicAborts relaxes assertions that require attempts to
	// fail only on real conflicts (e.g. exact callback-execution counts),
	// for configurations with spurious hardware aborts.
	NondeterministicAborts bool
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Ops <= 0 {
		o.Ops = 300
	}
	return o
}

// RunConformance runs the whole suite against the factory.
func RunConformance(t *testing.T, f Factory, opts Options) {
	opts = opts.withDefaults()
	t.Run("SequentialSemantics", func(t *testing.T) { sequentialSemantics(t, f) })
	t.Run("ReadOwnWrites", func(t *testing.T) { readOwnWrites(t, f) })
	t.Run("UserAbortRollsBack", func(t *testing.T) { userAbortRollsBack(t, f, opts) })
	t.Run("ReadOnlyStorePanics", func(t *testing.T) { readOnlyStorePanics(t, f) })
	t.Run("ConcurrentCounter", func(t *testing.T) { concurrentCounter(t, f, opts) })
	t.Run("Scenarios", func(t *testing.T) { registryScenarios(t, f, opts) })
	t.Run("OpacityWithinTransaction", func(t *testing.T) { opacityWithin(t, f, opts) })
	t.Run("WriteSkewPrevented", func(t *testing.T) { writeSkew(t, f, opts) })
	t.Run("AllocFreeUnderLoad", func(t *testing.T) { allocFree(t, f, opts) })
	if !opts.SkipPrivatization {
		t.Run("Privatization", func(t *testing.T) { privatization(t, f, opts) })
	}
	t.Run("MixedReadOnlyAndWriters", func(t *testing.T) { mixedReadOnly(t, f, opts) })
	t.Run("FlatNesting", func(t *testing.T) { flatNesting(t, f) })
	t.Run("LargeTransactions", func(t *testing.T) { largeTransactions(t, f, opts) })
	t.Run("MixedSizeTransactions", func(t *testing.T) { mixedSizes(t, f, opts) })
	t.Run("AbortStorm", func(t *testing.T) { abortStorm(t, f, opts) })
	t.Run("LifecycleAccounting", func(t *testing.T) { lifecycleAccounting(t, f, opts) })
	t.Run("RedoLogReplay", func(t *testing.T) { redoLogReplay(t, f, opts) })
}

// newMem builds the suite's memory. The stripe count is overridable via
// RHNOREC_STRIPES so CI can prove the conformance histories are identical
// on the degenerate single-clock substrate (-stripes 1, the pre-striping
// behaviour) and on the default striped one.
func newMem() *mem.Memory {
	if s := os.Getenv("RHNOREC_STRIPES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return mem.NewStriped(1<<20, n)
		}
	}
	return mem.New(1 << 20)
}

// sequentialSemantics: a single thread performing random reads and writes
// must observe exactly the semantics of direct memory access.
func sequentialSemantics(t *testing.T, f Factory) {
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	defer th.Close()
	var base mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(128)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	shadow := make([]uint64, 128)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		nOps := 1 + rng.Intn(8)
		type op struct {
			write bool
			off   int
			val   uint64
		}
		ops := make([]op, nOps)
		for j := range ops {
			ops[j] = op{rng.Intn(2) == 0, rng.Intn(128), rng.Uint64()}
		}
		if err := th.Run(func(tx tm.Tx) error {
			pending := make(map[int]uint64) // writes earlier in this txn
			for _, o := range ops {
				a := base + mem.Addr(o.off)
				if o.write {
					tx.Store(a, o.val)
					pending[o.off] = o.val
					continue
				}
				want, ok := pending[o.off]
				if !ok {
					want = shadow[o.off]
				}
				if got := tx.Load(a); got != want {
					return fmt.Errorf("iter %d: Load(%d) = %d, want %d", i, o.off, got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			if o.write {
				shadow[o.off] = o.val
			}
		}
	}
}

func readOwnWrites(t *testing.T, f Factory) {
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		a := tx.Alloc(2)
		tx.Store(a, 11)
		if got := tx.Load(a); got != 11 {
			return fmt.Errorf("read-own-write = %d, want 11", got)
		}
		tx.Store(a, 22)
		if got := tx.Load(a); got != 22 {
			return fmt.Errorf("second read-own-write = %d, want 22", got)
		}
		if got := tx.Load(a + 1); got != 0 {
			return fmt.Errorf("untouched word = %d, want 0", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

var errUser = errors.New("user abort")

func userAbortRollsBack(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	defer th.Close()
	var a mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		a = tx.Alloc(2)
		tx.Store(a, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := th.Run(func(tx tm.Tx) error {
		calls++
		tx.Store(a, 77)
		tx.Store(a+1, 88)
		return errUser
	})
	if !errors.Is(err, errUser) {
		t.Fatalf("Run error = %v, want errUser", err)
	}
	if calls != 1 && !opts.NondeterministicAborts {
		t.Errorf("user-aborting callback ran %d times, want 1 (no retry)", calls)
	}
	if err := th.Run(func(tx tm.Tx) error {
		if got := tx.Load(a); got != 5 {
			return fmt.Errorf("word a = %d after user abort, want 5", got)
		}
		if got := tx.Load(a + 1); got != 0 {
			return fmt.Errorf("word a+1 = %d after user abort, want 0", got)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
	if th.Stats().UserAborts != 1 {
		t.Errorf("UserAborts = %d, want 1", th.Stats().UserAborts)
	}
}

func readOnlyStorePanics(t *testing.T, f Factory) {
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	defer th.Close()
	var a mem.Addr
	if err := th.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Store inside RunReadOnly did not panic")
		}
	}()
	_ = th.RunReadOnly(func(tx tm.Tx) error {
		tx.Store(a, 1)
		return nil
	})
}

func concurrentCounter(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var a mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < opts.Ops; j++ {
				if err := th.Run(func(tx tm.Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != uint64(opts.Threads*opts.Ops) {
		t.Errorf("counter = %d, want %d (lost updates)", got, opts.Threads*opts.Ops)
	}
}

// registryScenarios: every workload in the shared conformance registry
// (internal/conformance) — bank transfers, the red-black tree, the session
// store, the rate limiter, the inventory checkout, the graph fan-out —
// passes setup → workers → invariant check under this system. The same
// entries drive the rhbench sweeps (the scenarios soak) and the schedule
// explorer.
func registryScenarios(t *testing.T, f Factory, opts Options) {
	for _, sc := range conformance.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			m := newMem()
			sys := f(m)
			if err := sc.Drive(sys, conformance.ScaleTest, opts.Threads, opts.Ops, 1); err != nil {
				t.Error(err)
			}
		})
	}
}

// opacityWithin: every transaction — including attempts that will restart —
// must observe the x+y invariant at the moment both loads returned. A
// violation inside the callback is recorded; committed violations and
// in-flight violations both count, because opacity promises a consistent
// snapshot to live transactions, not just committed ones.
func opacityWithin(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var x, y mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		x = tx.Alloc(mem.LineWords)
		y = tx.Alloc(mem.LineWords)
		tx.Store(x, 1000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var violations atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(id + 100)))
			for j := 0; j < opts.Ops; j++ {
				if id%2 == 0 {
					_ = th.Run(func(tx tm.Tx) error { // mover
						vx := tx.Load(x)
						vy := tx.Load(y)
						if vx+vy != 1000 {
							violations.Add(1)
						}
						d := uint64(rng.Intn(10))
						if vx >= d {
							tx.Store(x, vx-d)
							tx.Store(y, vy+d)
						} else {
							tx.Store(x, vx+vy)
							tx.Store(y, 0)
						}
						return nil
					})
				} else {
					_ = th.RunReadOnly(func(tx tm.Tx) error { // observer
						vx := tx.Load(x)
						vy := tx.Load(y)
						if vx+vy != 1000 {
							violations.Add(1)
						}
						return nil
					})
				}
			}
		}(i)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Errorf("opacity violated %d times (transaction observed x+y != 1000)", violations.Load())
	}
	if got := m.LoadPlain(x) + m.LoadPlain(y); got != 1000 {
		t.Errorf("final x+y = %d, want 1000", got)
	}
}

// writeSkew: two transactions each read both words and write one; under
// serializability at most one of a conflicting pair commits with the stale
// premise, so x+y never exceeds the cap.
func writeSkew(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var x, y mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		x = tx.Alloc(mem.LineWords)
		y = tx.Alloc(mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < opts.Ops; j++ {
				_ = th.Run(func(tx tm.Tx) error {
					sum := tx.Load(x) + tx.Load(y)
					if sum == 0 { // the "constraint": only one word may go up
						if id == 0 {
							tx.Store(x, 1)
						} else {
							tx.Store(y, 1)
						}
					}
					return nil
				})
				_ = th.Run(func(tx tm.Tx) error { // reset
					if tx.Load(x)+tx.Load(y) == 2 {
						return nil // leave the evidence in place
					}
					tx.Store(x, 0)
					tx.Store(y, 0)
					return nil
				})
			}
		}(i)
	}
	wg.Wait()
	if got := m.LoadPlain(x) + m.LoadPlain(y); got > 1 {
		t.Errorf("write skew admitted: x+y = %d, want <= 1", got)
	}
}

// allocFree: a shared transactional stack of nodes is pushed and popped
// concurrently; allocation balance must hold and no node may be observed
// torn.
func allocFree(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var head mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { head = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	// node layout: [next, payload, payloadCheck]
	const nodeWords = 3
	var wg sync.WaitGroup
	var torn atomic.Uint64
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < opts.Ops; j++ {
				if rng.Intn(2) == 0 {
					v := rng.Uint64()
					_ = th.Run(func(tx tm.Tx) error { // push
						n := tx.Alloc(nodeWords)
						tx.Store(n, tx.Load(head))
						tx.Store(n+1, v)
						tx.Store(n+2, ^v)
						tx.Store(head, uint64(n))
						return nil
					})
				} else {
					_ = th.Run(func(tx tm.Tx) error { // pop
						n := mem.Addr(tx.Load(head))
						if n == mem.Nil {
							return nil
						}
						if tx.Load(n+1) != ^tx.Load(n+2) {
							torn.Add(1)
						}
						tx.Store(head, tx.Load(n))
						tx.Free(n, nodeWords)
						return nil
					})
				}
			}
		}(int64(i + 31))
	}
	wg.Wait()
	if torn.Load() != 0 {
		t.Errorf("observed %d torn nodes", torn.Load())
	}
	// Count remaining stack nodes; allocation accounting must match
	// (head block + live nodes; limbo blocks are still "live" until their
	// grace period, so only check that nothing was lost).
	var nodes int64
	for n := mem.Addr(m.LoadPlain(head)); n != mem.Nil; n = mem.Addr(m.LoadPlain(n)) {
		nodes++
	}
	if live := m.LiveBlocks(); live < nodes+1 {
		t.Errorf("LiveBlocks = %d < reachable nodes %d + head", live, nodes+1)
	}
}

// privatization: a thread transactionally detaches a two-word node from a
// shared slot, then — outside any transaction — reads it with plain loads.
// Writers transactionally update the node in place while it is shared. The
// privatizer must never observe a half-applied update after detaching.
func privatization(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var slot mem.Addr
	mkNode := func(tx tm.Tx) mem.Addr {
		n := tx.Alloc(2 * mem.LineWords)
		tx.Store(n, 0)
		tx.Store(n+mem.LineWords, 0)
		return n
	}
	if err := setup.Run(func(tx tm.Tx) error {
		slot = tx.Alloc(1)
		tx.Store(slot, uint64(mkNode(tx)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var stop atomic.Bool
	var bad atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < opts.Threads-1; i++ {
		wg.Add(1)
		go func(seed int64) { // writers: keep the two halves equal
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				v := rng.Uint64()
				_ = th.Run(func(tx tm.Tx) error {
					n := mem.Addr(tx.Load(slot))
					if n == mem.Nil {
						return nil
					}
					tx.Store(n, v)
					tx.Store(n+mem.LineWords, v)
					return nil
				})
			}
		}(int64(i + 77))
	}
	wg.Add(1)
	go func() { // privatizer
		defer wg.Done()
		th := sys.NewThread()
		defer th.Close()
		for round := 0; round < opts.Ops/4 && !stop.Load(); round++ {
			var n mem.Addr
			_ = th.Run(func(tx tm.Tx) error {
				n = mem.Addr(tx.Load(slot))
				tx.Store(slot, 0) // detach: the node is now private
				return nil
			})
			if n != mem.Nil {
				// Non-transactional access to privatized data.
				a := m.LoadPlain(n)
				b := m.LoadPlain(n + mem.LineWords)
				if a != b {
					bad.Add(1)
				}
			}
			_ = th.Run(func(tx tm.Tx) error { // re-publish
				tx.Store(slot, uint64(n))
				return nil
			})
		}
		stop.Store(true)
	}()
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("privatization violated %d times (torn node seen non-transactionally)", bad.Load())
	}
}

// flatNesting: a Run inside a Run executes inline in the enclosing
// transaction (GCC TM flattened-nesting semantics): inner writes are
// atomic with outer ones, the inner callback sees outer writes, and an
// inner error surfaces to the outer callback which decides the fate of the
// whole flattened transaction.
func flatNesting(t *testing.T, f Factory) {
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	defer th.Close()
	var a, bAddr mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		a = tx.Alloc(1)
		bAddr = tx.Alloc(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Inner sees outer's write; inner's write commits with the outer txn.
	if err := th.Run(func(tx tm.Tx) error {
		tx.Store(a, 7)
		return th.Run(func(inner tm.Tx) error {
			if got := inner.Load(a); got != 7 {
				return fmt.Errorf("nested read = %d, want outer write 7", got)
			}
			inner.Store(bAddr, 8)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.RunReadOnly(func(tx tm.Tx) error {
		if tx.Load(a) != 7 || tx.Load(bAddr) != 8 {
			return fmt.Errorf("flattened commit lost writes: %d,%d", tx.Load(a), tx.Load(bAddr))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// An inner error propagated outward aborts the whole flattened txn.
	err := th.Run(func(tx tm.Tx) error {
		tx.Store(a, 100)
		return th.Run(func(inner tm.Tx) error {
			inner.Store(bAddr, 200)
			return errUser
		})
	})
	if !errors.Is(err, errUser) {
		t.Fatalf("nested error did not propagate: %v", err)
	}
	// An inner error swallowed by the outer callback commits everything
	// the flattened transaction wrote before and after.
	if err := th.Run(func(tx tm.Tx) error {
		tx.Store(a, 11)
		if err := th.Run(func(inner tm.Tx) error {
			inner.Store(bAddr, 22)
			return errUser
		}); !errors.Is(err, errUser) {
			return fmt.Errorf("inner error lost: %v", err)
		}
		return nil // swallow: the flattened txn commits, inner write included
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.RunReadOnly(func(tx tm.Tx) error {
		if tx.Load(a) != 11 || tx.Load(bAddr) != 22 {
			return fmt.Errorf("after swallow: %d,%d want 11,22", tx.Load(a), tx.Load(bAddr))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// largeTransactions: write and read sets far beyond any hardware capacity
// must still commit atomically (through whatever slow/serial path the
// system uses).
func largeTransactions(t *testing.T, f Factory, opts Options) {
	const words = 4096 // 512 lines of data
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var base mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { base = tx.Alloc(words); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	var torn atomic.Uint64
	threads := opts.Threads
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < 8; j++ {
				// Writer: stamp the whole region with one value.
				v := id<<32 | uint64(j)
				if err := th.Run(func(tx tm.Tx) error {
					for w := 0; w < words; w++ {
						tx.Store(base+mem.Addr(w), v)
					}
					return nil
				}); err != nil {
					t.Errorf("large write: %v", err)
					return
				}
				// Reader: the whole region must carry a single stamp.
				if err := th.RunReadOnly(func(tx tm.Tx) error {
					first := tx.Load(base)
					for w := 1; w < words; w += 97 {
						if tx.Load(base+mem.Addr(w)) != first {
							torn.Add(1)
							break
						}
					}
					return nil
				}); err != nil {
					t.Errorf("large read: %v", err)
					return
				}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if torn.Load() != 0 {
		t.Errorf("observed %d torn whole-region stamps", torn.Load())
	}
}

// mixedSizes: tiny hardware-friendly transactions race with huge
// fallback-only ones on overlapping data; a conserved total catches any
// path-interaction bug.
func mixedSizes(t *testing.T, f Factory, opts Options) {
	const cells = 64
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var base mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		base = tx.Alloc(cells * mem.LineWords)
		tx.Store(base, cells*100) // all value starts in cell 0
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	cell := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	var wg sync.WaitGroup
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < opts.Ops/4; j++ {
				if rng.Intn(8) == 0 {
					// Huge rebalancing transaction: gather and respread.
					if err := th.Run(func(tx tm.Tx) error {
						var total uint64
						for c := 0; c < cells; c++ {
							total += tx.Load(cell(c))
						}
						per := total / cells
						rem := total % cells
						for c := 0; c < cells; c++ {
							v := per
							if uint64(c) < rem {
								v++
							}
							tx.Store(cell(c), v)
						}
						return nil
					}); err != nil {
						t.Errorf("rebalance: %v", err)
						return
					}
					continue
				}
				from, to := rng.Intn(cells), rng.Intn(cells)
				if err := th.Run(func(tx tm.Tx) error {
					bf := tx.Load(cell(from))
					if bf == 0 || from == to {
						return nil
					}
					tx.Store(cell(from), bf-1)
					tx.Store(cell(to), tx.Load(cell(to))+1)
					return nil
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(i + 13))
	}
	wg.Wait()
	snap := make([]uint64, cells*mem.LineWords)
	m.Snapshot(base, snap)
	var total uint64
	for c := 0; c < cells; c++ {
		total += snap[c*mem.LineWords]
	}
	if total != cells*100 {
		t.Errorf("total = %d, want %d (mixed-size interaction lost value)", total, cells*100)
	}
}

// lifecycleAccounting: every driver runs on the one transaction skeleton
// (tm.ThreadBase.Run), so with a recorder attached each thread must account
// its Runs the same way whatever the algorithm — one attempt-phase sample
// per Run that returned, one commit ring event per counted commit, a
// fast- or software-phase sample behind every commit, and nothing but
// UserAborts for a callback that returned an error.
func lifecycleAccounting(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var a mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { a = tx.Alloc(mem.LineWords); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	const runs = 64
	var wg sync.WaitGroup
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			// The ring must hold every event of the thread: begins, commits,
			// and however many aborts and fallbacks contention adds.
			rec := obs.NewRecorder(obs.Config{RingSize: 1 << 16})
			th.Stats().Obs = rec
			var userAborts uint64
			for j := 0; j < runs; j++ {
				var err error
				switch j % 4 {
				case 0:
					err = th.RunReadOnly(func(tx tm.Tx) error { _ = tx.Load(a); return nil })
				case 1:
					userAborts++
					if err = th.Run(func(tx tm.Tx) error { tx.Store(a, 0); return errUser }); errors.Is(err, errUser) {
						err = nil
					}
				default:
					err = th.Run(func(tx tm.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
				}
				if err != nil {
					t.Errorf("thread %d run %d: %v", id, j, err)
					return
				}
			}
			st := th.Stats()
			if st.UserAborts != userAborts || st.Commits != runs-userAborts {
				t.Errorf("thread %d: Commits=%d UserAborts=%d, want %d and %d", id, st.Commits, st.UserAborts, runs-userAborts, userAborts)
			}
			if st.FastPathCommits+st.SlowPathCommits+st.SerialCommits != st.Commits {
				t.Errorf("thread %d: path commits do not sum to Commits: %+v", id, st)
			}
			if n := rec.PhaseHist(obs.PhaseAttempt).Count(); n != runs {
				t.Errorf("thread %d: %d attempt-phase samples for %d completed Runs", id, n, runs)
			}
			if d := rec.Ring().Dropped(); d != 0 {
				t.Errorf("thread %d: ring dropped %d events; grow it", id, d)
				return
			}
			var begins, commitEvents uint64
			for _, e := range rec.Ring().Events() {
				switch e.Kind {
				case obs.EventBegin:
					begins++
				case obs.EventCommit:
					commitEvents++
				}
			}
			if begins != runs || commitEvents != st.Commits {
				t.Errorf("thread %d: %d begin / %d commit events, want %d / %d", id, begins, commitEvents, runs, st.Commits)
			}
			fast, soft := rec.PhaseHist(obs.PhaseFast).Count(), rec.PhaseHist(obs.PhaseSoftware).Count()
			if fast < st.FastPathCommits || soft != st.SlowPathCommits+st.SerialCommits {
				t.Errorf("thread %d: %d fast / %d software samples behind %+v", id, fast, soft, st)
			}
		}(i)
	}
	wg.Wait()
}

// abortStorm: a high rate of user aborts interleaved with commits must
// leave exactly the committed effects.
func abortStorm(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var a mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	var committed atomic.Uint64
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < opts.Ops; j++ {
				abort := rng.Intn(2) == 0
				err := th.Run(func(tx tm.Tx) error {
					tx.Store(a, tx.Load(a)+1)
					if abort {
						return errUser
					}
					return nil
				})
				switch {
				case abort && !errors.Is(err, errUser):
					t.Errorf("user abort lost: %v", err)
					return
				case !abort && err != nil:
					t.Errorf("commit failed: %v", err)
					return
				case !abort:
					committed.Add(1)
				}
			}
		}(int64(i + 3))
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != committed.Load() {
		t.Errorf("counter = %d, want %d (aborted increments leaked or commits lost)", got, committed.Load())
	}
}

// mixedReadOnly: read-only transactions interleave with writers; totals
// remain consistent and read-only commits are counted.
func mixedReadOnly(t *testing.T, f Factory, opts Options) {
	m := newMem()
	sys := f(m)
	setup := sys.NewThread()
	var a mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	roThreads := (opts.Threads + 1) / 2
	var roCommits atomic.Uint64
	for i := 0; i < opts.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < opts.Ops; j++ {
				if id < roThreads {
					_ = th.RunReadOnly(func(tx tm.Tx) error {
						_ = tx.Load(a)
						return nil
					})
				} else {
					_ = th.Run(func(tx tm.Tx) error {
						tx.Store(a, tx.Load(a)+1)
						return nil
					})
				}
			}
			if id < roThreads {
				roCommits.Add(th.Stats().ReadOnlyCommits)
			}
		}(i)
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != uint64((opts.Threads-roThreads)*opts.Ops) {
		t.Errorf("counter = %d, want %d", got, (opts.Threads-roThreads)*opts.Ops)
	}
	if got := roCommits.Load(); got != uint64(roThreads*opts.Ops) {
		t.Errorf("ReadOnlyCommits = %d, want %d", got, roThreads*opts.Ops)
	}
}
