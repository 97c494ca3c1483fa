package core_test

import (
	"sync"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/explore"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Hybrid NOrec's own behaviour: what core.NewHybridNOrec must do that RH
// NOrec must not (a slow-path writer kills unrelated fast paths), and what
// both must (stay in hardware when uncontended, finish oversized and
// starved transactions in software). Its conformance run is
// TestConformanceFullSoftware.

// TestFastPathOnlyWhenUncontended: with no conflicts everything commits in
// hardware and the fallback count stays untouched.
func TestFastPathOnlyWhenUncontended(t *testing.T) {
	m := mem.New(1 << 16)
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(4)
	sys := core.NewHybridNOrec(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var a mem.Addr
	for i := 0; i < 40; i++ {
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
	if s.FastPathCommits != 40 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v, want 40 fast-path commits, 0 fallbacks", s)
	}
}

// TestCapacityGoesToSlowPath: an oversized transaction must complete on the
// software slow path.
func TestCapacityGoesToSlowPath(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 4})
	dev.SetActiveThreads(1)
	sys := core.NewHybridNOrec(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base mem.Addr
	if err := th.Run(func(tx tm.Tx) error { base = tx.Alloc(32 * mem.LineWords); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := th.Run(func(tx tm.Tx) error {
		for i := 0; i < 32; i++ {
			tx.Store(base+mem.Addr(i*mem.LineWords), uint64(i+1))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := th.Stats()
	if s.SlowPathCommits == 0 {
		t.Errorf("stats = %+v, want a slow-path commit", s)
	}
	if s.HTMCapacityAborts == 0 {
		t.Error("no capacity abort recorded")
	}
	for i := 0; i < 32; i++ {
		if got := m.LoadPlain(base + mem.Addr(i*mem.LineWords)); got != uint64(i+1) {
			t.Fatalf("word %d = %d after slow-path commit", i, got)
		}
	}
}

// TestSlowWriterAbortsFastPaths: the defining HY-NOrec behaviour — a
// slow-path writer's first write (setting the HTM lock) aborts concurrent
// hardware transactions, even ones touching unrelated data. The schedule is
// pinned under internal/explore: the fast writer is parked between its
// begin and its commit, the slow writer runs until it is inside its write
// phase, and only then does the fast writer take its next step.
func TestSlowWriterAbortsFastPaths(t *testing.T) {
	var (
		sys            *core.System
		big, small     mem.Addr
		fastInFlight   bool // the fast writer has begun and not yet reached commit
		slowWritePhase bool // the slow writer holds the HTM lock
		fastTh         tm.Thread
	)
	sc := explore.Scenario{
		Name:         "hy-norec-slow-writer",
		FixedWorkers: 2,
		DefaultOps:   1,
		HTM:          htm.Config{WriteCapacityLines: 4},
		Build: func(env *explore.Env, _ explore.Config) ([]func(), func() error, error) {
			sys = core.NewHybridNOrec(env.M, env.Dev, tm.RetryPolicy{})
			setup := sys.NewThread()
			defer setup.Close()
			err := setup.Run(func(tx tm.Tx) error {
				big = tx.Alloc(32 * mem.LineWords)
				small = tx.Alloc(mem.LineWords)
				return nil
			})
			fastTh = sys.NewThread()
			fast := func() { // fast-path writer on unrelated data
				_ = fastTh.Run(func(tx tm.Tx) error {
					v := tx.Load(small)
					fastInFlight = true
					tx.Store(small, v+1)
					return nil
				})
				fastInFlight = false
			}
			slow := func() { // capacity-bound writer: always falls back
				th := sys.NewThread()
				defer th.Close()
				_ = th.Run(func(tx tm.Tx) error {
					for k := 0; k < 32; k++ {
						tx.Store(big+mem.Addr(k*mem.LineWords), 1)
						// Five distinct lines overflow the hardware write
						// capacity, so getting here means the software path,
						// whose first write took the HTM lock.
						slowWritePhase = k >= 8
					}
					slowWritePhase = false
					return nil
				})
			}
			return []func(){fast, slow}, nil, err
		},
	}
	res, err := explore.RunScenario(sc, explore.Config{}, explore.Steer(
		explore.Leg{Worker: 0, Until: func() bool { return fastInFlight }},
		explore.Leg{Worker: 1, Until: func() bool { return slowWritePhase }},
		// The fast writer's next hardware step revalidates its subscription
		// to the HTM lock and dies; its retry then waits on the lock, so it
		// gets a bounded leg before the slow writer is let finish.
		explore.Leg{Worker: 0, Until: func() bool { return fastTh.Stats().HTMAborts() > 0 }},
		explore.Leg{Worker: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != explore.OutcomeOK {
		t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
	}
	defer fastTh.Close()
	fastStats := fastTh.Stats()
	if got := sys.Memory().LoadPlain(small); got != 1 {
		t.Errorf("fast counter = %d, want 1", got)
	}
	// The fast thread must have suffered an abort caused by the unrelated
	// slow writer (a false abort — the scalability problem RH NOrec fixes).
	if fastStats.HTMAborts() == 0 {
		t.Error("fast path saw zero aborts despite a concurrent slow-path writer in its write phase")
	}
	if fastStats.Commits != 1 {
		t.Errorf("fast thread commits = %d, want 1", fastStats.Commits)
	}
}

// TestSerialLockEnsuresProgress: with a hostile stream of fast-path writer
// commits, a capacity-bound slow path still finishes (via the serial lock).
func TestSerialLockEnsuresProgress(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 4})
	dev.SetActiveThreads(2)
	sys := core.NewHybridNOrec(m, dev, tm.RetryPolicy{MaxSlowPathRestarts: 3})
	setup := sys.NewThread()
	var big, hot mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		big = tx.Alloc(32 * mem.LineWords)
		hot = tx.Alloc(mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fast writers hammering the clock
		defer wg.Done()
		th := sys.NewThread()
		defer th.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = th.Run(func(tx tm.Tx) error {
				tx.Store(hot, tx.Load(hot)+1)
				return nil
			})
		}
	}()
	th := sys.NewThread()
	defer th.Close()
	for i := 0; i < 20; i++ {
		if err := th.Run(func(tx tm.Tx) error {
			// Reads first (restart-prone), then a capacity-busting write set.
			_ = tx.Load(hot)
			for k := 0; k < 32; k++ {
				tx.Store(big+mem.Addr(k*mem.LineWords), uint64(i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if th.Stats().SlowPathCommits == 0 {
		t.Error("expected slow-path commits under capacity pressure")
	}
}
