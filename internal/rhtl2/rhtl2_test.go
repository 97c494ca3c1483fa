package rhtl2_test

import (
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/rhtl2"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

func factory(m *mem.Memory) tm.System {
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(4)
	return rhtl2.New(m, dev, tm.RetryPolicy{})
}

func TestConformance(t *testing.T) {
	// RH-TL2 does not provide privatization — the paper's §1.2 third
	// drawback.
	tmtest.RunConformance(t, factory, tmtest.Options{SkipPrivatization: true})
}

func TestConformanceTinyCapacity(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 4, WriteCapacityLines: 2})
		dev.SetActiveThreads(4)
		return rhtl2.New(m, dev, tm.RetryPolicy{})
	}, tmtest.Options{SkipPrivatization: true})
}

func TestConformanceSpurious(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		dev := htm.NewDevice(m, htm.Config{SpuriousAbortProb: 0.03})
		dev.SetActiveThreads(4)
		return rhtl2.New(m, dev, tm.RetryPolicy{})
	}, tmtest.Options{SkipPrivatization: true, Ops: 150, NondeterministicAborts: true})
}

func TestName(t *testing.T) {
	m := mem.New(1 << 16)
	sys := rhtl2.New(m, htm.NewDevice(m, htm.Config{}), tm.RetryPolicy{})
	if sys.Name() != "rh-tl2" {
		t.Errorf("Name = %q", sys.Name())
	}
	if sys.Memory() != m {
		t.Error("Memory accessor broken")
	}
}

func TestMismatchedDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rhtl2.New(mem.New(1024), htm.NewDevice(mem.New(1024), htm.Config{}), tm.RetryPolicy{})
}

// TestFastPathWritesAreInstrumented: the §1.2 first drawback, made
// observable — an RH-TL2 fast-path writer consumes extra write capacity for
// its stripe updates, so a write set that fits RH NOrec's uninstrumented
// fast path can overflow RH-TL2's.
func TestFastPathWritesAreInstrumented(t *testing.T) {
	m := mem.New(1 << 20)
	// 8 data lines fit exactly; stripes + the gv update push past the cap.
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 8})
	dev.SetActiveThreads(1)
	sys := rhtl2.New(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base mem.Addr
	if err := th.Run(func(tx tm.Tx) error { base = tx.Alloc(8 * mem.LineWords); return nil }); err != nil {
		t.Fatal(err)
	}
	before := th.Stats().FastPathCommits
	if err := th.Run(func(tx tm.Tx) error {
		for i := 0; i < 8; i++ {
			tx.Store(base+mem.Addr(i*mem.LineWords), uint64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := th.Stats()
	if s.FastPathCommits != before {
		t.Errorf("8-line write set committed on the fast path despite stripe instrumentation (capacity aborts: %d)", s.HTMCapacityAborts)
	}
	if s.SlowPathCommits == 0 {
		t.Error("writer did not complete on the slow path")
	}
}

// TestCommitHTMCarriesReadsAndWrites: the §1.2 second drawback — the
// slow-path commit transaction must fit reads AND writes, so a transaction
// whose write set alone would fit fails in hardware and needs the software
// commit.
func TestCommitHTMCarriesReadsAndWrites(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 8, WriteCapacityLines: 64})
	dev.SetActiveThreads(1)
	sys := rhtl2.New(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base, out mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(64 * 512 * mem.LineWords)
		out = tx.Alloc(mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 32 read lines spaced 512 lines apart map to 32 *distinct stripe
	// lines* (the table packs 8 stripes per line, so consecutive data
	// lines would share stripe lines). They overflow both the fast path
	// and — because the commit HTM revalidates all 32 read stripes — the
	// hardware commit, even though the write set is one line.
	if err := th.Run(func(tx tm.Tx) error {
		var sum uint64
		for i := 0; i < 32; i++ {
			sum += tx.Load(base + mem.Addr(i*512*mem.LineWords))
		}
		tx.Store(out, sum+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := th.Stats()
	if s.SlowPathCommits == 0 {
		t.Fatal("transaction did not take the slow path")
	}
	if s.PostfixAttempts == 0 {
		t.Fatal("no hardware commit attempt recorded")
	}
	if s.PostfixCommits != 0 {
		t.Errorf("hardware commit succeeded despite a 32-stripe read validation (capacity %d lines)", 8)
	}
	if got := m.LoadPlain(out); got != 1 {
		t.Errorf("out = %d, want 1 (software commit must have completed)", got)
	}
}

// TestHardwareCommitUsedWhenItFits: with room for reads and writes, the
// slow path commits through the small hardware transaction.
func TestHardwareCommitUsedWhenItFits(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 8, WriteCapacityLines: 64, SpuriousAbortProb: 0})
	dev.SetActiveThreads(1)
	sys := rhtl2.New(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base, out mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(32 * mem.LineWords)
		out = tx.Alloc(mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The fast path fails on WRITE capacity (2 data lines + their stripes
	// + the version clock exceed 2 lines — the instrumentation overhead),
	// while the commit HTM's write set fits the larger budget of a second
	// device... but devices are per-system, so instead give this system a
	// write budget the instrumented fast path cannot meet and the commit
	// HTM can: the fast path writes data+stripes+gv, the commit HTM writes
	// the same set, so the separating lever is the READ side — force the
	// fast-path fallback via read capacity and leave writes roomy.
	dev2 := htm.NewDevice(m, htm.Config{ReadCapacityLines: 4, WriteCapacityLines: 64})
	dev2.SetActiveThreads(1)
	sys2 := rhtl2.New(m, dev2, tm.RetryPolicy{})
	th2 := sys2.NewThread()
	defer th2.Close()
	if err := th2.Run(func(tx tm.Tx) error {
		// Five spaced read lines exceed the 4-line fast-path read budget
		// (plus the HTM-lock subscription line); the slow-path commit HTM
		// revalidates only these stripes, which share few stripe lines.
		var sum uint64
		for i := 0; i < 5; i++ {
			sum += tx.Load(base + mem.Addr(i*mem.LineWords))
		}
		tx.Store(out, sum+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := th2.Stats()
	if s.SlowPathCommits == 0 {
		t.Skip("fast path fit after all; instrumentation overhead not triggered at this geometry")
	}
	if s.PostfixCommits == 0 {
		t.Errorf("slow path did not use the hardware commit: %+v", s)
	}
}
