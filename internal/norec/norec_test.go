package norec_test

import (
	"sync"
	"testing"

	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

func TestConformanceEager(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		return norec.New(m, norec.Eager)
	}, tmtest.Options{})
}

func TestConformanceLazy(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		return norec.New(m, norec.Lazy)
	}, tmtest.Options{})
}

// TestEagerRestartsOnConcurrentCommit: an eager reader that sees the clock
// move restarts — the defining behaviour of the no-read-set design.
func TestEagerRestartsOnConcurrentCommit(t *testing.T) {
	m := mem.New(1 << 16)
	sys := norec.New(m, norec.Eager)
	th := sys.NewThread()
	defer th.Close()
	var a mem.Addr
	if err := th.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	// A second thread commits a write between our loads.
	other := sys.NewThread()
	defer other.Close()
	reads := 0
	if err := th.Run(func(tx tm.Tx) error {
		reads++
		_ = tx.Load(a)
		if reads == 1 {
			if err := other.Run(func(tx2 tm.Tx) error {
				tx2.Store(a, 42)
				return nil
			}); err != nil {
				return err
			}
			_ = tx.Load(a) // must notice the clock moved and restart
			t.Error("read after concurrent commit did not restart")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if reads != 2 {
		t.Errorf("attempts = %d, want 2 (one restart)", reads)
	}
	if th.Stats().STMRestarts != 1 {
		t.Errorf("STMRestarts = %d, want 1", th.Stats().STMRestarts)
	}
}

// TestEagerWriterCannotBeInvalidated: once the clock lock is held, the
// writer commits unconditionally (no other writer can commit concurrently).
func TestEagerWriterCommitsUnderReadLoad(t *testing.T) {
	m := mem.New(1 << 16)
	sys := norec.New(m, norec.Eager)
	setup := sys.NewThread()
	var a mem.Addr
	if err := setup.Run(func(tx tm.Tx) error { a = tx.Alloc(1); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < per; j++ {
				if err := th.Run(func(tx tm.Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					t.Errorf("writer error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != writers*per {
		t.Errorf("counter = %d, want %d", got, writers*per)
	}
}

// TestStatsSlowPathCommits: pure STM commits are slow-path commits.
func TestStatsSlowPathCommits(t *testing.T) {
	m := mem.New(1 << 14)
	sys := norec.New(m, norec.Eager)
	th := sys.NewThread()
	defer th.Close()
	for i := 0; i < 5; i++ {
		if err := th.Run(func(tx tm.Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if th.Stats().SlowPathCommits != 5 {
		t.Errorf("SlowPathCommits = %d, want 5", th.Stats().SlowPathCommits)
	}
	if th.Stats().FastPathCommits != 0 {
		t.Error("STM recorded fast-path commits")
	}
}

// TestCloseStopsPacing: the software path's yield points pace only while
// another thread of the System is registered.
func TestCloseStopsPacing(t *testing.T) {
	tmtest.CheckClosePacing(t, norec.New(mem.New(1<<16), norec.Eager))
}
