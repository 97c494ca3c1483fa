package lockelision_test

import (
	"errors"
	"sync"
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

func factory(m *mem.Memory) tm.System {
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(4)
	return lockelision.New(m, dev, tm.RetryPolicy{})
}

func TestConformance(t *testing.T) {
	tmtest.RunConformance(t, factory, tmtest.Options{})
}

func TestName(t *testing.T) {
	m := mem.New(1024)
	sys := lockelision.New(m, htm.NewDevice(m, htm.Config{}), tm.RetryPolicy{})
	if sys.Name() != "lock-elision" {
		t.Errorf("Name = %q", sys.Name())
	}
	if sys.Memory() != m {
		t.Error("Memory accessor broken")
	}
}

func TestMismatchedDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for device over a different memory")
		}
	}()
	lockelision.New(mem.New(1024), htm.NewDevice(mem.New(1024), htm.Config{}), tm.RetryPolicy{})
}

// TestFastPathUsedWhenUncontended: single-threaded transactions must all
// commit in hardware, never taking the lock.
func TestFastPathUsedWhenUncontended(t *testing.T) {
	m := mem.New(1 << 16)
	sys := factory(m)
	th := sys.NewThread()
	defer th.Close()
	var a mem.Addr
	for i := 0; i < 50; i++ {
		if err := th.Run(func(tx tm.Tx) error {
			if a == mem.Nil {
				a = tx.Alloc(1)
			}
			tx.Store(a, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := th.Stats()
	if s.FastPathCommits != 50 {
		t.Errorf("FastPathCommits = %d, want 50", s.FastPathCommits)
	}
	if s.SerialCommits != 0 || s.Fallbacks != 0 {
		t.Errorf("unexpected fallbacks: %+v", s)
	}
}

// TestCapacityOverflowFallsBackToLock: a transaction exceeding the write
// capacity must complete via the lock fallback.
func TestCapacityOverflowFallsBackToLock(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 8})
	dev.SetActiveThreads(1)
	sys := lockelision.New(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base mem.Addr
	if err := th.Run(func(tx tm.Tx) error { base = tx.Alloc(64 * mem.LineWords); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := th.Run(func(tx tm.Tx) error {
		for i := 0; i < 64; i++ {
			tx.Store(base+mem.Addr(i*mem.LineWords), uint64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := th.Stats()
	if s.SerialCommits != 1 {
		t.Errorf("SerialCommits = %d, want 1 (capacity fallback)", s.SerialCommits)
	}
	if s.HTMCapacityAborts == 0 {
		t.Error("no capacity abort recorded")
	}
	if s.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", s.Fallbacks)
	}
	// And the writes landed.
	for i := 0; i < 64; i++ {
		if got := m.LoadPlain(base + mem.Addr(i*mem.LineWords)); got != uint64(i) {
			t.Fatalf("word %d = %d after fallback commit", i, got)
		}
	}
}

// TestLockSerializesWithSpeculation: hammer a counter with a mix of huge
// (fallback-forcing) and small transactions; no update may be lost even
// though paths interleave.
func TestLockSerializesWithSpeculation(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 8})
	dev.SetActiveThreads(4)
	sys := lockelision.New(m, dev, tm.RetryPolicy{})
	setup := sys.NewThread()
	var ctr, big mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		ctr = tx.Alloc(1)
		big = tx.Alloc(64 * mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	const threads, per = 4, 150
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < per; j++ {
				if err := th.Run(func(tx tm.Tx) error {
					tx.Store(ctr, tx.Load(ctr)+1)
					if id == 0 { // thread 0 overflows capacity every time
						for k := 0; k < 64; k++ {
							tx.Store(big+mem.Addr(k*mem.LineWords), tx.Load(ctr))
						}
					}
					return nil
				}); err != nil {
					t.Errorf("run error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := m.LoadPlain(ctr); got != threads*per {
		t.Errorf("counter = %d, want %d", got, threads*per)
	}
}

// TestRestartFromApplicationRetries: tm.Restart inside fn behaves as a
// conflict (retries, eventually falling back) rather than crashing.
func TestRestartFromApplicationRetries(t *testing.T) {
	m := mem.New(1 << 16)
	sys := factory(m)
	th := sys.NewThread()
	defer th.Close()
	calls := 0
	if err := th.Run(func(tx tm.Tx) error {
		calls++
		if calls < 3 {
			tm.Restart()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("callback ran %d times, want 3", calls)
	}
}

// The serial baseline is lock elision without a device: every Run takes the
// global lock.
func serialFactory(m *mem.Memory) tm.System { return lockelision.NewSerial(m) }

func TestSerialConformance(t *testing.T) {
	tmtest.RunConformance(t, serialFactory, tmtest.Options{})
}

func TestSerialUserAbortRollsBackEagerWritesInOrder(t *testing.T) {
	m := mem.New(1 << 12)
	th := serialFactory(m).NewThread()
	defer th.Close()
	var a mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		a = tx.Alloc(1)
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := th.Run(func(tx tm.Tx) error {
		tx.Store(a, 2)
		tx.Store(a, 3)
		tx.Store(a, 4)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := m.LoadPlain(a); got != 1 {
		t.Errorf("value = %d after rollback of chained writes, want 1", got)
	}
}

func TestSerialApplicationPanicPropagatesAndRollsBack(t *testing.T) {
	m := mem.New(1 << 12)
	th := serialFactory(m).NewThread()
	defer th.Close()
	var a mem.Addr
	if err := th.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "app bug" {
				t.Errorf("recovered %v, want app bug", r)
			}
		}()
		_ = th.Run(func(tx tm.Tx) error {
			tx.Store(a, 9)
			panic("app bug")
		})
	}()
	if got := m.LoadPlain(a); got != 0 {
		t.Errorf("value = %d after panic, want 0 (rolled back)", got)
	}
	// The thread must remain usable (lock released).
	if err := th.Run(func(tx tm.Tx) error { tx.Store(a, 1); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSerialStatsCounters(t *testing.T) {
	th := serialFactory(mem.New(1 << 12)).NewThread()
	defer th.Close()
	_ = th.Run(func(tx tm.Tx) error { return nil })
	_ = th.RunReadOnly(func(tx tm.Tx) error { return nil })
	_ = th.Run(func(tx tm.Tx) error { return errors.New("x") })
	s := th.Stats()
	if s.Commits != 2 || s.SerialCommits != 2 || s.ReadOnlyCommits != 1 || s.UserAborts != 1 {
		t.Errorf("stats = %+v", s)
	}
}
