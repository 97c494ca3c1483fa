package phasedtm_test

import (
	"testing"

	"rhnorec/internal/explore"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/phasedtm"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

func factory(m *mem.Memory) tm.System {
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(4)
	return phasedtm.New(m, dev, tm.RetryPolicy{})
}

func TestConformance(t *testing.T) {
	tmtest.RunConformance(t, factory, tmtest.Options{})
}

func TestConformanceTinyCapacity(t *testing.T) {
	// Constant capacity failures keep the system mostly in the software
	// phase.
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 2, WriteCapacityLines: 1})
		dev.SetActiveThreads(4)
		return phasedtm.New(m, dev, tm.RetryPolicy{})
	}, tmtest.Options{})
}

func TestName(t *testing.T) {
	m := mem.New(1024)
	sys := phasedtm.New(m, htm.NewDevice(m, htm.Config{}), tm.RetryPolicy{})
	if sys.Name() != "phased-tm" {
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
	phasedtm.New(mem.New(1024), htm.NewDevice(mem.New(1024), htm.Config{}), tm.RetryPolicy{})
}

// TestPhaseSwitchAndBack: a capacity-bound transaction forces the software
// phase; subsequent small transactions must eventually return to the
// hardware phase.
func TestPhaseSwitchAndBack(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{WriteCapacityLines: 4})
	dev.SetActiveThreads(1)
	sys := phasedtm.New(m, dev, tm.RetryPolicy{})
	th := sys.NewThread()
	defer th.Close()
	var base, small mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(32 * mem.LineWords)
		small = tx.Alloc(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Capacity-bound: must run in the software phase.
	if err := th.Run(func(tx tm.Tx) error {
		for k := 0; k < 32; k++ {
			tx.Store(base+mem.Addr(k*mem.LineWords), 1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats().SlowPathCommits == 0 {
		t.Fatal("oversized transaction did not use the software phase")
	}
	// Small transactions afterwards must recover the hardware phase.
	fastBefore := th.Stats().FastPathCommits
	for i := 0; i < 20; i++ {
		if err := th.Run(func(tx tm.Tx) error {
			tx.Store(small, tx.Load(small)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Stats().FastPathCommits == fastBefore {
		t.Error("system never switched back to the hardware phase")
	}
}

// TestWholeSystemPaysForOneFallback demonstrates the phased weakness the
// paper describes: while one thread cannot finish in hardware, other
// threads' small transactions get dragged into the software phase. The
// schedule is pinned under internal/explore: the capacity-bound transaction
// is parked inside the software phase it forced (registered, before its
// first write), and the small transactions then run to completion.
func TestWholeSystemPaysForOneFallback(t *testing.T) {
	const smallRuns = 5
	var (
		sys            *phasedtm.System
		bigTh, smallTh tm.Thread
		small          mem.Addr
		bigInSoftware  bool
	)
	sc := explore.Scenario{
		Name:         "phased-tm-one-fallback",
		FixedWorkers: 2,
		DefaultOps:   1,
		HTM:          htm.Config{WriteCapacityLines: 4},
		Build: func(env *explore.Env, _ explore.Config) ([]func(), func() error, error) {
			sys = phasedtm.New(env.M, env.Dev, tm.RetryPolicy{})
			setup := sys.NewThread()
			defer setup.Close()
			var big mem.Addr
			err := setup.Run(func(tx tm.Tx) error {
				big = tx.Alloc(32 * mem.LineWords)
				small = tx.Alloc(1)
				return nil
			})
			bigTh, smallTh = sys.NewThread(), sys.NewThread()
			smalls := func() {
				for i := 0; i < smallRuns; i++ {
					if err := smallTh.Run(func(tx tm.Tx) error {
						tx.Store(small, tx.Load(small)+1)
						return nil
					}); err != nil {
						env.Violatef("small transaction: %v", err)
					}
				}
			}
			capacityBound := func() {
				_ = bigTh.Run(func(tx tm.Tx) error {
					// The hardware try dies of capacity inside the loop below; the
					// callback that runs after the fallback is the software one.
					bigInSoftware = bigTh.Stats().SlowPathStarts > 0
					for k := 0; k < 32; k++ {
						tx.Store(big+mem.Addr(k*mem.LineWords), 1)
					}
					bigInSoftware = false
					return nil
				})
			}
			return []func(){smalls, capacityBound}, nil, err
		},
	}
	res, err := explore.RunScenario(sc, explore.Config{}, explore.Steer(
		explore.Leg{Worker: 1, Until: func() bool { return bigInSoftware }},
		explore.Leg{Worker: 0},
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != explore.OutcomeOK {
		t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
	}
	defer bigTh.Close()
	defer smallTh.Close()
	if got := sys.Memory().LoadPlain(small); got != smallRuns {
		t.Errorf("counter = %d, want %d", got, smallRuns)
	}
	if got := smallTh.Stats().SlowPathCommits; got != smallRuns {
		t.Errorf("%d of %d small transactions ran in the software phase — the phased cost did not manifest", got, smallRuns)
	}
	if bigTh.Stats().SlowPathCommits != 1 {
		t.Errorf("capacity-bound transaction: %+v", bigTh.Stats())
	}
}
