package htm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/mem"
)

func newTestDevice(cfg Config) (*mem.Memory, *Device, *mem.ThreadCache) {
	m := mem.New(1 << 18)
	d := NewDevice(m, cfg)
	d.SetActiveThreads(1)
	return m, d, m.NewThreadCache()
}

// attempt runs body in a transaction, returning the abort if any.
func attempt(t *Txn, body func()) *Abort {
	return t.Attempt(body)
}

func TestCommitPublishesWrites(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(4)
	tx := d.NewTxn()
	if ab := attempt(tx, func() {
		tx.Store(a, 10)
		tx.Store(a+1, 20)
	}); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
	if m.LoadPlain(a) != 10 || m.LoadPlain(a+1) != 20 {
		t.Error("committed writes not visible")
	}
}

// TestCommitAboveAllocMarkIsCleared: a hardware commit that stores above
// AllocMark raises the memory's touched frontier, so the block later carved
// over its words is cleared and reads zero.
func TestCommitAboveAllocMarkIsCleared(t *testing.T) {
	const n = 5000
	m, d, c := newTestDevice(Config{})
	mark := m.AllocMark()
	tx := d.NewTxn()
	if ab := attempt(tx, func() {
		tx.Store(mark+17, 1)
		tx.Store(mark+n-1, 2)
	}); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
	a := c.Alloc(n)
	if a != mark {
		t.Fatalf("oversized carve at %d, want AllocMark %d", a, mark)
	}
	for i := range mem.Addr(n) {
		if got := m.LoadPlain(a + i); got != 0 {
			t.Fatalf("fresh block word %d = %d after a commit stored there, want 0", i, got)
		}
	}
}

func TestWritesInvisibleBeforeCommit(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	tx.Begin()
	tx.Store(a, 99)
	if m.LoadPlain(a) != 0 {
		t.Error("speculative write escaped before commit")
	}
	tx.Commit()
	if m.LoadPlain(a) != 99 {
		t.Error("write lost at commit")
	}
}

func TestReadOwnWrites(t *testing.T) {
	_, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	tx.Begin()
	tx.Store(a, 7)
	if got := tx.Load(a); got != 7 {
		t.Errorf("Load after own Store = %d, want 7", got)
	}
	tx.Commit()
}

func TestExplicitAbort(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		tx.Store(a, 1)
		tx.Abort(42)
	})
	if ab == nil || ab.Code != Explicit || ab.Arg != 42 {
		t.Fatalf("abort = %v, want explicit(42)", ab)
	}
	if ab.MayRetry() {
		t.Error("explicit abort should not suggest retry")
	}
	if m.LoadPlain(a) != 0 {
		t.Error("aborted write escaped")
	}
	if tx.Active() {
		t.Error("txn still active after abort")
	}
}

func TestConflictAbortOnPlainStore(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		_ = tx.Load(a)
		m.StorePlain(a, 5) // simulate another thread's plain store
		_ = tx.Load(a + 1) // next speculative access must notice
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict", ab)
	}
	if !ab.MayRetry() {
		t.Error("conflict abort should suggest retry")
	}
}

func TestConflictAbortAtCommit(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		_ = tx.Load(a)
		m.StorePlain(a, 5)
		// no further loads: the conflict must be caught by commit validation
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict at commit", ab)
	}
}

func TestUnrelatedPlainStoreDoesNotAbort(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(2)
	b := c.Alloc(2)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		_ = tx.Load(a)
		m.StorePlain(b, 5) // disjoint location: value-based validation passes
		_ = tx.Load(a + 1)
	})
	if ab != nil {
		t.Fatalf("unexpected abort on disjoint plain store: %v", ab)
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	_, d, c := newTestDevice(Config{WriteCapacityLines: 4})
	base := c.Alloc(16 * mem.LineWords)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		for i := 0; i < 16; i++ {
			tx.Store(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if ab == nil || ab.Code != Capacity {
		t.Fatalf("abort = %v, want capacity", ab)
	}
	if ab.MayRetry() {
		t.Error("capacity abort must not suggest retry")
	}
}

func TestReadCapacityAbort(t *testing.T) {
	_, d, c := newTestDevice(Config{ReadCapacityLines: 4})
	base := c.Alloc(16 * mem.LineWords)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		for i := 0; i < 16; i++ {
			_ = tx.Load(base + mem.Addr(i*mem.LineWords))
		}
	})
	if ab == nil || ab.Code != Capacity {
		t.Fatalf("abort = %v, want capacity", ab)
	}
}

func TestSameLineDoesNotConsumeCapacity(t *testing.T) {
	_, d, c := newTestDevice(Config{ReadCapacityLines: 2, WriteCapacityLines: 2})
	base := c.Alloc(mem.LineWords)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		for i := 0; i < mem.LineWords; i++ {
			_ = tx.Load(base + mem.Addr(i))
			tx.Store(base+mem.Addr(i), uint64(i))
		}
	})
	if ab != nil {
		t.Fatalf("unexpected abort within a single line: %v", ab)
	}
}

func TestHyperThreadingHalvesCapacity(t *testing.T) {
	_, d, c := newTestDevice(Config{Cores: 2, WriteCapacityLines: 8})
	base := c.Alloc(8 * mem.LineWords)
	write6 := func(tx *Txn) *Abort {
		return attempt(tx, func() {
			for i := 0; i < 6; i++ {
				tx.Store(base+mem.Addr(i*mem.LineWords), 1)
			}
		})
	}
	tx := d.NewTxn()
	d.SetActiveThreads(2)
	if ab := write6(tx); ab != nil {
		t.Fatalf("6 lines should fit at full capacity: %v", ab)
	}
	d.SetActiveThreads(3) // oversubscribed: capacity halves to 4
	if ab := write6(tx); ab == nil || ab.Code != Capacity {
		t.Fatalf("abort = %v, want capacity with HyperThreading", ab)
	}
}

func TestSpuriousAborts(t *testing.T) {
	_, d, c := newTestDevice(Config{SpuriousAbortProb: 1.0})
	a := c.Alloc(1)
	tx := d.NewTxn()
	ab := attempt(tx, func() { _ = tx.Load(a) })
	if ab == nil || ab.Code != Spurious {
		t.Fatalf("abort = %v, want spurious with probability 1", ab)
	}
	if ab.MayRetry() {
		t.Error("spurious (fault-like) abort should clear the retry hint")
	}
}

// TestDupLoadsNotRelogged: re-reading an address must not grow the read log —
// validation cost is O(distinct addresses), not O(dynamic reads).
func TestDupLoadsNotRelogged(t *testing.T) {
	_, d, c := newTestDevice(Config{})
	a := c.Alloc(4)
	tx := d.NewTxn()
	if ab := attempt(tx, func() {
		for i := 0; i < 100; i++ {
			_ = tx.Load(a)
		}
		if got := tx.reads.len(); got != 1 {
			t.Errorf("read log has %d entries after 100 loads of one word, want 1", got)
		}
		_ = tx.Load(a + 1)
		for i := 0; i < 100; i++ {
			_ = tx.Load(a)
			_ = tx.Load(a + 1)
		}
		if got := tx.reads.len(); got != 2 {
			t.Errorf("read log has %d entries for 2 distinct words, want 2", got)
		}
	}); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
}

// TestDupLoadReturnsSnapshotValue: a duplicate load answered from the read
// log must return the value the log was validated at, even if the word has
// since been overwritten by a plain store — that is the only answer
// consistent with the transaction's snapshot. The stale read then dooms the
// transaction at commit, exactly like the seed protocol.
func TestDupLoadReturnsSnapshotValue(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	m.StorePlain(a, 11)
	tx := d.NewTxn()
	ab := attempt(tx, func() {
		if got := tx.Load(a); got != 11 {
			t.Errorf("first load = %d, want 11", got)
		}
		m.StorePlain(a, 22) // foreign overwrite of a logged word
		if got := tx.Load(a); got != 11 {
			t.Errorf("dup load = %d, want snapshot value 11", got)
		}
	})
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want conflict at commit for the stale read", ab)
	}
}

// TestDupLoadDisjointStoreCommits: duplicate loads plus a foreign store to an
// untracked word must still commit — value validation sees no change.
func TestDupLoadDisjointStoreCommits(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(2 * mem.LineWords)
	tx := d.NewTxn()
	if ab := attempt(tx, func() {
		_ = tx.Load(a)
		m.StorePlain(a+mem.LineWords, 9)
		_ = tx.Load(a) // dup: served from the log
		_ = tx.Load(a) // and again
	}); ab != nil {
		t.Fatalf("unexpected abort on disjoint store: %v", ab)
	}
}

func TestReadOnlyCommitDoesNotMoveClock(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	before := m.Ticket()
	if ab := attempt(tx, func() { _ = tx.Load(a) }); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
	if m.Ticket() != before {
		t.Error("read-only commit moved the commit ticket")
	}
}

func TestNoNesting(t *testing.T) {
	_, d, _ := newTestDevice(Config{})
	tx := d.NewTxn()
	tx.Begin()
	defer tx.Cancel()
	defer func() {
		if recover() == nil {
			t.Error("nested Begin did not panic")
		}
	}()
	tx.Begin()
}

func TestOpsOutsideTxnPanic(t *testing.T) {
	_, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	for name, f := range map[string]func(){
		"load":   func() { tx.Load(a) },
		"store":  func() { tx.Store(a, 1) },
		"commit": func() { tx.Commit() },
		"abort":  func() { tx.Abort(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside txn did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTxnReusableAfterAbort(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	if ab := attempt(tx, func() { tx.Abort(1) }); ab == nil {
		t.Fatal("expected abort")
	}
	if ab := attempt(tx, func() { tx.Store(a, 3) }); ab != nil {
		t.Fatalf("reuse after abort failed: %v", ab)
	}
	if m.LoadPlain(a) != 3 {
		t.Error("write after reuse lost")
	}
}

func TestDeviceStatsCount(t *testing.T) {
	_, d, c := newTestDevice(Config{})
	a := c.Alloc(1)
	tx := d.NewTxn()
	attempt(tx, func() { tx.Store(a, 1) })
	attempt(tx, func() { tx.Abort(0) })
	s := d.Stats()
	if s.Starts != 2 || s.Commits != 1 || s.ExplicitAborts != 1 {
		t.Errorf("stats = %+v, want starts=2 commits=1 explicit=1", s)
	}
}

// TestConflictBetweenHardwareTxns: two transactions race on one word; exactly
// one of each conflicting pair commits, and the final value reflects a
// serial order.
func TestConflictBetweenHardwareTxns(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	d.SetActiveThreads(4)
	a := c.Alloc(1)
	const threads, per = 4, 300
	var commits atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := d.NewTxn()
			for j := 0; j < per; j++ {
				for { // retry until commit
					ab := attempt(tx, func() {
						v := tx.Load(a)
						tx.Store(a, v+1)
					})
					if ab == nil {
						commits.Add(1)
						break
					}
					if ab.Code != Conflict {
						t.Errorf("unexpected abort code %v", ab.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != threads*per {
		t.Errorf("counter = %d, want %d (lost updates)", got, threads*per)
	}
	if commits.Load() != threads*per {
		t.Errorf("commits = %d, want %d", commits.Load(), threads*per)
	}
}

// TestOpacityInvariant: writers keep x+y constant transactionally; readers
// (including doomed ones) must never observe a violated invariant at the
// moment both loads have returned.
func TestOpacityInvariant(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	d.SetActiveThreads(4)
	base := c.Alloc(mem.LineWords * 2)
	x, y := base, base+mem.LineWords // separate lines
	m.StorePlain(x, 1000)
	var stop atomic.Bool
	var bad atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // writer: move value between x and y
			defer wg.Done()
			tx := d.NewTxn()
			for !stop.Load() {
				attempt(tx, func() {
					vx := tx.Load(x)
					vy := tx.Load(y)
					if vx > 0 {
						tx.Store(x, vx-1)
						tx.Store(y, vy+1)
					} else {
						tx.Store(x, vx+vy)
						tx.Store(y, 0)
					}
				})
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // reader: check the invariant inside the transaction
			defer wg.Done()
			tx := d.NewTxn()
			for !stop.Load() {
				attempt(tx, func() {
					vx := tx.Load(x)
					vy := tx.Load(y)
					if vx+vy != 1000 {
						bad.Add(1)
					}
				})
			}
		}()
	}
	for i := 0; i < 200000 && bad.Load() == 0; i++ {
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("opacity violated %d times: a speculative reader saw x+y != 1000", bad.Load())
	}
	if got := m.LoadPlain(x) + m.LoadPlain(y); got != 1000 {
		t.Errorf("final x+y = %d, want 1000", got)
	}
}

// TestStrongAtomicityWithPlainWriter: a plain (non-transactional) writer
// keeps x+y constant. Two plain stores one word at a time are NOT
// atomic, so instead it updates both words in one CommitWrites; hardware
// readers must never see a torn pair.
func TestStrongAtomicityWithPlainWriter(t *testing.T) {
	m, d, c := newTestDevice(Config{})
	d.SetActiveThreads(3)
	base := c.Alloc(mem.LineWords * 2)
	x, y := base, base+mem.LineWords
	m.StorePlain(x, 500)
	m.StorePlain(y, 500)
	var stop atomic.Bool
	var bad atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // plain writer using an atomic two-word publish
		defer wg.Done()
		v := uint64(500)
		for !stop.Load() {
			v++
			m.CommitWrites([]mem.WriteEntry{{Addr: x, Value: v}, {Addr: y, Value: 1000 - v%1000}}, nil)
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := d.NewTxn()
			for !stop.Load() {
				attempt(tx, func() {
					vx := tx.Load(x)
					vy := tx.Load(y)
					if vx%1000+vy != 1000 && !(vx%1000 == 0 && vy == 1000) {
						bad.Add(1)
					}
				})
			}
		}()
	}
	for i := 0; i < 200000 && bad.Load() == 0; i++ {
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("strong atomicity violated %d times", bad.Load())
	}
}

func TestAbortStringAndError(t *testing.T) {
	if (&Abort{Code: Conflict}).Error() != "htm abort: conflict" {
		t.Error("conflict Error() text")
	}
	if (&Abort{Code: Explicit, Arg: 7}).Error() != "htm abort: explicit(7)" {
		t.Error("explicit Error() text")
	}
	for c, want := range map[Code]string{Conflict: "conflict", Capacity: "capacity", Explicit: "explicit", Spurious: "spurious", Code(99): "htm.Code(99)"} {
		if c.String() != want {
			t.Errorf("Code(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestAsAbort(t *testing.T) {
	if _, ok := AsAbort("boom"); ok {
		t.Error("AsAbort matched a non-abort")
	}
	if a, ok := AsAbort(&Abort{Code: Capacity}); !ok || a.Code != Capacity {
		t.Error("AsAbort failed to match an abort")
	}
}

func TestAttemptPropagatesForeignPanics(t *testing.T) {
	_, d, _ := newTestDevice(Config{})
	tx := d.NewTxn()
	defer func() {
		if r := recover(); r != "user bug" {
			t.Errorf("recovered %v, want user bug", r)
		}
		if tx.Active() {
			t.Error("txn left active after foreign panic")
		}
	}()
	tx.Attempt(func() { panic("user bug") })
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	def := DefaultConfig()
	if cfg.Cores != def.Cores || cfg.ReadCapacityLines != def.ReadCapacityLines || cfg.WriteCapacityLines != def.WriteCapacityLines {
		t.Errorf("withDefaults = %+v, want %+v", cfg, def)
	}
	custom := Config{Cores: 4, ReadCapacityLines: 10, WriteCapacityLines: 5}.withDefaults()
	if custom.Cores != 4 || custom.ReadCapacityLines != 10 || custom.WriteCapacityLines != 5 {
		t.Errorf("withDefaults clobbered explicit values: %+v", custom)
	}
}

// allocLines returns the first word of n whole cache lines.
func allocLines(c *mem.ThreadCache, n int) mem.Addr {
	a := c.Alloc((n + 1) * mem.LineWords)
	return (a + mem.LineWords - 1) &^ (mem.LineWords - 1)
}

// hookFunc adapts a function to the device Hook; it injects no fault.
type hookFunc func(op HookOp, a mem.Addr)

func (f hookFunc) Yield(op HookOp, a mem.Addr, _ uint64) Directive {
	f(op, a)
	return DirNone
}

// TestBeginForgetsLineOpenedByDyingLoad: Load opens a line's record before
// it reads the word, so a transaction that dies inside that read leaves a
// line with nothing logged in it. The next transaction on the same Txn must
// start from zero lines — a leftover would be a phantom toward its capacity
// and move the load its capacity abort fires on. Two ways to die there: a
// conflict (words logged on other lines), and a foreign panic on the
// transaction's very first load (no word logged at all, the case a reset
// guard keyed on words logged would miss).
func TestBeginForgetsLineOpenedByDyingLoad(t *testing.T) {
	const readCap = 4
	m, d, c := newTestDevice(Config{ReadCapacityLines: readCap})
	base := allocLines(c, readCap+1)
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	tx := d.NewTxn()

	checkFresh := func(after string) {
		t.Helper()
		tx.Begin()
		n := tx.ReadLineCount()
		tx.Cancel()
		if n != 0 {
			t.Fatalf("after %s: Begin left %d read lines open", after, n)
		}
		if ab := attempt(tx, func() {
			for i := 0; i < readCap; i++ {
				_ = tx.Load(line(i))
			}
		}); ab != nil {
			t.Fatalf("after %s: %d lines against a %d-line budget: %v", after, readCap, readCap, ab)
		}
		loads := 0
		ab := attempt(tx, func() {
			for i := 0; i <= readCap; i++ {
				_ = tx.Load(line(i))
				loads++
			}
		})
		if ab == nil || ab.Code != Capacity || loads != readCap {
			t.Fatalf("after %s: abort %v after %d loads, want capacity on load %d", after, ab, loads, readCap+1)
		}
	}

	// A foreign store to the logged word lands as the load of the next line
	// announces itself: that load opens its line, then fails validation.
	d.SetHook(hookFunc(func(op HookOp, a mem.Addr) {
		if op == HookLoad && a == line(1) {
			m.StorePlain(line(0), 99)
		}
	}))
	ab := attempt(tx, func() {
		_ = tx.Load(line(0))
		_ = tx.Load(line(1))
	})
	d.SetHook(nil)
	if ab == nil || ab.Code != Conflict {
		t.Fatalf("abort = %v, want a conflict on the first word of the second line", ab)
	}
	if got := tx.reads.lineCount(); got != 2 || tx.reads.lines[1].have != 0 || tx.reads.len() != 1 {
		t.Fatalf("dead transaction holds %d lines, %d words, second line bitmap %#x; want 2, 1, 0",
			got, tx.reads.len(), tx.reads.lines[1].have)
	}
	checkFresh("a conflict on the first word of a new line")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a load past the end of memory did not panic")
			}
		}()
		attempt(tx, func() { _ = tx.Load(mem.Addr(m.Size())) })
	}()
	if tx.reads.lineCount() != 1 || tx.reads.len() != 0 {
		t.Fatalf("dead transaction holds %d lines, %d words; want 1, 0", tx.reads.lineCount(), tx.reads.len())
	}
	checkFresh("a first load that died with nothing logged")
}

// TestQuickTxnSetsMatchMapModel drives seeded random Load/Store sequences —
// duplicates, several words of one line, loads of buffered writes, 1 to 600
// lines, with and without room in the device — against a model made of
// plain maps. Every value returned, both line counts after every operation,
// the operation a capacity abort fires on, and the memory a commit leaves
// must agree.
func TestQuickTxnSetsMatchMapModel(t *testing.T) {
	const maxLines = 600
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nLines := 1 + rng.Intn(maxLines)
		// A third of the devices hold any footprint; the rest run out
		// somewhere inside it, on the read side, the write side or both.
		readCap, writeCap := 2*maxLines, 2*maxLines
		if rng.Intn(3) > 0 {
			readCap = 1 + rng.Intn(nLines)
		}
		if rng.Intn(3) > 0 {
			writeCap = 1 + rng.Intn(nLines)
		}
		m, d, c := newTestDevice(Config{ReadCapacityLines: readCap, WriteCapacityLines: writeCap})
		base := allocLines(c, nLines)
		memVal := func(a mem.Addr) uint64 { return uint64(a)*7 + 1 }
		for a := base; a < base+mem.Addr(nLines*mem.LineWords); a++ {
			m.StorePlain(a, memVal(a))
		}

		type op struct {
			store bool
			a     mem.Addr
			v     uint64
		}
		ops := make([]op, 1+rng.Intn(4*nLines+8))
		for i := range ops {
			a := base + mem.Addr(rng.Intn(nLines)*mem.LineWords+rng.Intn(mem.LineWords))
			if i > 0 && rng.Intn(4) == 0 {
				a = ops[rng.Intn(i)].a // a duplicate, or a load of a buffered write
			}
			ops[i] = op{store: rng.Intn(5) == 0, a: a, v: rng.Uint64()}
		}

		// The model: what each operation returns, the line counts it leaves,
		// and the first operation that overflows a budget.
		written := map[mem.Addr]uint64{}
		readWords := map[mem.Addr]bool{}
		linesRead, linesWritten := map[mem.Line]bool{}, map[mem.Line]bool{}
		type expect struct {
			val    uint64
			rl, wl int
		}
		want := make([]expect, 0, len(ops))
		abortAt := -1
		for i, o := range ops {
			var e expect
			l := mem.LineOf(o.a)
			if o.store {
				if _, ok := written[o.a]; !ok && !linesWritten[l] {
					linesWritten[l] = true
					if len(linesWritten) > writeCap {
						abortAt = i
						break
					}
				}
				written[o.a] = o.v
			} else if v, ok := written[o.a]; ok {
				e.val = v
			} else {
				e.val = memVal(o.a)
				if !readWords[o.a] {
					readWords[o.a] = true
					if !linesRead[l] {
						linesRead[l] = true
						if len(linesRead) > readCap {
							abortAt = i
							break
						}
					}
				}
			}
			e.rl, e.wl = len(linesRead), len(linesWritten)
			want = append(want, e)
		}

		tx := d.NewTxn()
		done := 0
		ab := attempt(tx, func() {
			for i, o := range ops {
				if o.store {
					tx.Store(o.a, o.v)
				} else if got := tx.Load(o.a); got != want[i].val {
					t.Fatalf("seed %d op %d: Load(%d) = %d, want %d", seed, i, o.a, got, want[i].val)
				}
				if rl, wl := tx.ReadLineCount(), tx.WriteLineCount(); rl != want[i].rl || wl != want[i].wl {
					t.Fatalf("seed %d op %d: %d read lines, %d write lines; want %d, %d", seed, i, rl, wl, want[i].rl, want[i].wl)
				}
				done++
			}
		})
		if abortAt >= 0 {
			if ab == nil || ab.Code != Capacity || done != abortAt {
				t.Fatalf("seed %d (caps %d/%d): abort %v at op %d, want capacity at op %d", seed, readCap, writeCap, ab, done, abortAt)
			}
			clear(written) // nothing of a dead transaction may show
		} else if ab != nil {
			t.Fatalf("seed %d (caps %d/%d): unexpected abort %v at op %d", seed, readCap, writeCap, ab, done)
		}
		for a := base; a < base+mem.Addr(nLines*mem.LineWords); a++ {
			w := memVal(a)
			if v, ok := written[a]; ok {
				w = v
			}
			if got := m.LoadPlain(a); got != w {
				t.Fatalf("seed %d: word %d holds %d afterwards, want %d", seed, a, got, w)
			}
		}
	}
}

// TestValidationIsWordGranularCapacityLineGranular pins the two
// granularities of the line-grained read log, for every pair of words of
// one line. Values are word-granular: a foreign store to a logged word
// aborts the transaction at its next validation, a foreign store to another
// word of the same line does not — even though the line's record still
// holds, from the transaction before, a value for that word that no longer
// matches. Capacity is line-granular: the line counts once however many of
// its words are read.
func TestValidationIsWordGranularCapacityLineGranular(t *testing.T) {
	m, d, c := newTestDevice(Config{ReadCapacityLines: 2})
	base := allocLines(c, 2)
	other := base + mem.LineWords
	tx := d.NewTxn()
	for logged := mem.Addr(0); logged < mem.LineWords; logged++ {
		for stored := mem.Addr(0); stored < mem.LineWords; stored++ {
			// Leave a value for every word of the line in its record.
			if ab := attempt(tx, func() {
				for w := mem.Addr(0); w < mem.LineWords; w++ {
					_ = tx.Load(base + w)
				}
				if got := tx.ReadLineCount(); got != 1 {
					t.Fatalf("eight words of one line count as %d lines", got)
				}
			}); ab != nil {
				t.Fatalf("unexpected abort filling the line: %v", ab)
			}
			ab := attempt(tx, func() {
				_ = tx.Load(base + logged)
				m.StorePlain(base+stored, m.LoadPlain(base+stored)+1)
				_ = tx.Load(other) // an unseen stripe behind a moved ticket: sweeps the log
			})
			switch {
			case logged == stored && (ab == nil || ab.Code != Conflict):
				t.Fatalf("logged word %d overwritten: abort = %v, want conflict", logged, ab)
			case logged != stored && ab != nil:
				t.Fatalf("word %d logged, word %d of its line overwritten: unexpected %v", logged, stored, ab)
			}
		}
	}
}
