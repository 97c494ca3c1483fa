package tm

import (
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
)

func TestRestartSignal(t *testing.T) {
	defer func() {
		r := recover()
		if !IsRestart(r) {
			t.Errorf("recovered %v, want restart signal", r)
		}
	}()
	Restart()
	t.Fatal("Restart returned")
}

func TestIsRestartRejectsOthers(t *testing.T) {
	if IsRestart("nope") || IsRestart(nil) || IsRestart(42) {
		t.Error("IsRestart matched a non-restart value")
	}
}

func TestPolicyWithDefaults(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	d := DefaultPolicy()
	if p != d {
		t.Errorf("zero policy -> %+v, want %+v", p, d)
	}
	custom := RetryPolicy{MaxHTMRetries: 3, DisablePrefix: true}.WithDefaults()
	if custom.MaxHTMRetries != 3 {
		t.Error("WithDefaults clobbered MaxHTMRetries")
	}
	if !custom.DisablePrefix {
		t.Error("WithDefaults clobbered DisablePrefix")
	}
	if custom.MaxSlowPathRestarts != d.MaxSlowPathRestarts {
		t.Error("WithDefaults did not fill MaxSlowPathRestarts")
	}
}

// TestWithDefaultsIgnoresEnv: the variables the library used to read must
// not move the resolved policy — configuration enters through cmd/.
func TestWithDefaultsIgnoresEnv(t *testing.T) {
	want := RetryPolicy{}.WithDefaults()
	t.Setenv("RHNOREC_POLICY", "adaptive")
	t.Setenv("RHNOREC_COMBINE", "1")
	t.Setenv("RHNOREC_PERSIST", "sync")
	if got := (RetryPolicy{}.WithDefaults()); got != want {
		t.Errorf("with RHNOREC_* set: %+v, want %+v", got, want)
	}
}

// TestSystemBase: the shell every driver embeds. A hybrid's threads get a
// hardware context and the engine, whose policy has the zero fields
// defaulted; an STM's get neither; and a device over another memory is
// refused by the one binding check every hybrid constructor goes through.
func TestSystemBase(t *testing.T) {
	m := mem.New(1 << 12)
	hy := NewHybridBase("hy", m, htm.NewDevice(m, htm.Config{}), RetryPolicy{MaxHTMRetries: 3})
	sw := NewSystemBase("sw", m)
	if hy.Name() != "hy" || sw.Name() != "sw" || hy.Memory() != m || sw.Memory() != m {
		t.Error("Name or Memory broken")
	}
	if sw.Engine() != nil {
		t.Error("a pure-software base has an engine")
	}
	if p := hy.Engine().Policy(); p.MaxHTMRetries != 3 || p.MaxSlowPathRestarts != DefaultPolicy().MaxSlowPathRestarts {
		t.Errorf("engine policy %+v: want MaxHTMRetries 3, the rest defaulted", p)
	}
	hb, sb := hy.NewThreadBase(), sw.NewThreadBase()
	if hb.HTM() == nil || hb.Engine != hy.Engine() || sb.HTM() != nil || sb.Engine != nil {
		t.Error("thread bases do not carry their system's hardware context and engine")
	}
	hb.Close()
	hb.Close() // idempotent
	sb.Close()

	defer func() {
		if recover() == nil {
			t.Error("no panic for a device over a different memory")
		}
	}()
	NewHybridBase("hy", m, htm.NewDevice(mem.New(1<<12), htm.Config{}), RetryPolicy{})
}

func TestStatsAddAndRatios(t *testing.T) {
	a := Stats{Commits: 10, HTMConflictAborts: 5, SlowPathCommits: 2, SlowPathRestarts: 6, Fallbacks: 2, PrefixAttempts: 4, PrefixCommits: 3, PostfixAttempts: 2, PostfixCommits: 2}
	b := Stats{Commits: 10, HTMCapacityAborts: 10}
	a.Add(&b)
	if a.Commits != 20 {
		t.Errorf("Commits = %d, want 20", a.Commits)
	}
	if got := a.ConflictAbortsPerOp(); got != 0.25 {
		t.Errorf("ConflictAbortsPerOp = %v, want 0.25", got)
	}
	if got := a.CapacityAbortsPerOp(); got != 0.5 {
		t.Errorf("CapacityAbortsPerOp = %v, want 0.5", got)
	}
	if got := a.RestartsPerSlowPath(); got != 3 {
		t.Errorf("RestartsPerSlowPath = %v, want 3", got)
	}
	if got := a.SlowPathRatio(); got != 0.1 {
		t.Errorf("SlowPathRatio = %v, want 0.1", got)
	}
	if got := a.PrefixSuccessRatio(); got != 0.75 {
		t.Errorf("PrefixSuccessRatio = %v, want 0.75", got)
	}
	if got := a.PostfixSuccessRatio(); got != 1 {
		t.Errorf("PostfixSuccessRatio = %v, want 1", got)
	}
	if got := a.HTMAborts(); got != 15 {
		t.Errorf("HTMAborts = %d, want 15", got)
	}
}

func TestStatsRatiosZeroDenominator(t *testing.T) {
	var s Stats
	for name, f := range map[string]func() float64{
		"conflict": s.ConflictAbortsPerOp,
		"capacity": s.CapacityAbortsPerOp,
		"restarts": s.RestartsPerSlowPath,
		"slowpath": s.SlowPathRatio,
		"prefix":   s.PrefixSuccessRatio,
		"postfix":  s.PostfixSuccessRatio,
	} {
		if got := f(); got != 0 {
			t.Errorf("%s ratio with zero denominator = %v, want 0", name, got)
		}
	}
}

func TestThreadBaseAllocCommit(t *testing.T) {
	m := mem.New(1 << 16)
	r := NewReclaimer()
	b := newThreadBase(m, r)
	b.BeginTxn()
	a := b.TxAlloc(8)
	if a == mem.Nil {
		t.Fatal("TxAlloc returned nil")
	}
	b.CommitCleanup()
	b.EndTxn()
	if m.LiveBlocks() != 1 {
		t.Errorf("LiveBlocks = %d, want 1 (allocation survives commit)", m.LiveBlocks())
	}
}

func TestThreadBaseAllocAbortReclaims(t *testing.T) {
	m := mem.New(1 << 16)
	r := NewReclaimer()
	b := newThreadBase(m, r)
	b.BeginTxn()
	b.TxAlloc(8)
	b.AbortCleanup()
	b.EndTxn()
	if b.Slot.PendingBlocks() != 1 {
		t.Errorf("PendingBlocks = %d, want 1 (aborted alloc goes to limbo)", b.Slot.PendingBlocks())
	}
	if m.LiveBlocks() != 1 {
		t.Errorf("LiveBlocks = %d, want 1 before the grace period elapses", m.LiveBlocks())
	}
	// Cycle epochs with further transactions; the limbo block must
	// eventually be recycled.
	for i := 0; i < 5; i++ {
		b.BeginTxn()
		x := b.TxAlloc(1)
		b.TxFree(x, 1)
		b.CommitCleanup()
		b.EndTxn()
		r.tryAdvance(b.Slot)
	}
	b.Close()
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d, want 0 after grace periods", m.LiveBlocks())
	}
}

func TestThreadBaseFreeDeferredUntilCommit(t *testing.T) {
	m := mem.New(1 << 16)
	r := NewReclaimer()
	b := newThreadBase(m, r)
	b.BeginTxn()
	a := b.TxAlloc(8)
	b.CommitCleanup()
	b.EndTxn()

	// A free requested by an attempt that aborts must NOT happen.
	b.BeginTxn()
	b.TxFree(a, 8)
	b.AbortCleanup()
	b.EndTxn()
	if m.LiveBlocks() != 1 {
		t.Errorf("LiveBlocks = %d, want 1 (free rolled back on abort)", m.LiveBlocks())
	}

	// A free requested by a committing attempt retires through limbo and
	// lands after the grace period (here forced by Close).
	b.BeginTxn()
	b.TxFree(a, 8)
	b.CommitCleanup()
	b.EndTxn()
	if b.Slot.PendingBlocks() != 1 {
		t.Errorf("PendingBlocks = %d, want 1 (free queued at commit)", b.Slot.PendingBlocks())
	}
	b.Close()
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d, want 0 (free honoured after grace period)", m.LiveBlocks())
	}
}

func TestEpochAdvanceBlockedByActiveThread(t *testing.T) {
	m := mem.New(1 << 14)
	r := NewReclaimer()
	b1 := newThreadBase(m, r)
	b2 := newThreadBase(m, r)
	e0 := r.Epoch()
	b1.BeginTxn()
	r.tryAdvance(b1.Slot)
	if r.Epoch() != e0+1 {
		t.Fatalf("epoch did not advance with all threads current: %d", r.Epoch())
	}
	// b1 is pinned at e0; a second advance must be blocked.
	r.tryAdvance(b1.Slot)
	if r.Epoch() != e0+1 {
		t.Errorf("epoch advanced past a pinned thread: %d", r.Epoch())
	}
	b1.EndTxn()
	r.tryAdvance(b1.Slot)
	if r.Epoch() != e0+2 {
		t.Errorf("epoch did not advance after unpin: %d", r.Epoch())
	}
	_ = b2
}

func TestDeferNilIsNoop(t *testing.T) {
	m := mem.New(1 << 14)
	r := NewReclaimer()
	b := newThreadBase(m, r)
	b.Slot.Defer(mem.Nil, 8)
	if b.Slot.PendingBlocks() != 0 {
		t.Error("nil defer entered limbo")
	}
}

// TestCloseBaseKeepsLimboFromPinnedThreads: a thread that closes while
// another is still inside a transaction must not recycle what it freed in
// its last epochs — the pinned transaction may be a doomed reader that still
// holds a pointer into the block, and a recycled block is zeroed and
// rewritten under it. The reclaimer adopts that limbo and recycles it once
// the grace period has passed.
func TestCloseBaseKeepsLimboFromPinnedThreads(t *testing.T) {
	m := mem.New(1 << 14)
	r := NewReclaimer()
	reader := newThreadBase(m, r)
	closer := newThreadBase(m, r)
	closer.BeginTxn()
	a := closer.TxAlloc(4)
	closer.CommitCleanup()
	closer.EndTxn()
	reader.BeginTxn() // may have read a pointer to a
	closer.BeginTxn()
	closer.TxFree(a, 4)
	closer.CommitCleanup()
	closer.EndTxn()
	closer.Close()
	if m.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1: a was recycled while a thread that may reach it is pinned", m.LiveBlocks())
	}
	reader.EndTxn()
	for i := 0; i < 3; i++ {
		r.tryAdvance(reader.Slot)
	}
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d, want 0 once the grace period has passed", m.LiveBlocks())
	}
	reader.Close()
}

func TestCloseBaseFlushesLimbo(t *testing.T) {
	m := mem.New(1 << 14)
	r := NewReclaimer()
	b := newThreadBase(m, r)
	b.BeginTxn()
	a := b.TxAlloc(4)
	b.TxFree(a, 4)
	b.CommitCleanup()
	b.EndTxn()
	b.Close()
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d, want 0 after Close", m.LiveBlocks())
	}
	b.Close() // idempotent
}
