// External test package so the suite can pull the TM drivers from
// internal/bench (which itself imports conformance for the scenario
// workloads) without an import cycle.
package conformance_test

import (
	"strings"
	"testing"

	"rhnorec/internal/bench"
	"rhnorec/internal/conformance"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

func drivers(t *testing.T) []bench.Algo {
	t.Helper()
	algos := bench.StandardAlgos()
	phased, ok := bench.AlgoByName("phased-tm")
	if !ok {
		t.Fatal("phased-tm driver missing")
	}
	return append(algos, phased)
}

// TestScenariosUnderAllDrivers runs every registry scenario through
// setup -> concurrent workers -> invariant check under all six TM drivers:
// the registry's core contract, that a scenario is a self-checking workload
// any driver must survive.
func TestScenariosUnderAllDrivers(t *testing.T) {
	for _, algo := range drivers(t) {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, sc := range conformance.Scenarios() {
				sc := sc
				t.Run(sc.Name, func(t *testing.T) {
					t.Parallel()
					m := mem.New(1 << 20)
					dev := htm.NewDevice(m, htm.Config{SpuriousAbortProb: 0.001})
					dev.SetActiveThreads(4)
					sys := algo.New(m, dev)
					if err := sc.Drive(sys, conformance.ScaleTest, 4, 250, 1); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestDriveRejectsZeroWorkers: a Drive that starts no worker must not report
// that the scenario held.
func TestDriveRejectsZeroWorkers(t *testing.T) {
	sc, _ := conformance.ByName("bank")
	for _, threads := range []int{0, -3} {
		m := mem.New(1 << 20)
		sys := bench.SerialAlgo().New(m, nil)
		if err := sc.Drive(sys, conformance.ScaleTest, threads, 10, 1); err == nil {
			t.Errorf("Drive with %d threads returned nil", threads)
		}
	}
}

// TestRegistryShape pins the registry's shape: unique names, positive
// explore bounds, resolvable lookups, and instances at every scale.
func TestRegistryShape(t *testing.T) {
	scs := conformance.Scenarios()
	if len(scs) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" || seen[sc.Name] {
			t.Errorf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.ExploreWorkers <= 0 || sc.ExploreOps <= 0 {
			t.Errorf("%s: explore bounds %d workers x %d ops not positive",
				sc.Name, sc.ExploreWorkers, sc.ExploreOps)
		}
		got, ok := conformance.ByName(sc.Name)
		if !ok || got.Name != sc.Name {
			t.Errorf("ByName(%q) did not round-trip", sc.Name)
		}
		for _, scale := range []conformance.Scale{
			conformance.ScaleExplore, conformance.ScaleTest, conformance.ScaleSoak,
		} {
			if sc.New(scale) == nil {
				t.Errorf("%s: New(%v) returned nil", sc.Name, scale)
			}
		}
	}
	if _, ok := conformance.ByName("no-such-scenario"); ok {
		t.Error("ByName resolved a nonexistent scenario")
	}
	names := conformance.Names()
	if len(names) != len(scs) {
		t.Errorf("Names() has %d entries, registry %d", len(names), len(scs))
	}
}

// TestDriveReportsViolation proves the oracle path end to end: a driver
// that silently drops committed writes must make Drive return an invariant
// failure, not pass quietly.
func TestDriveReportsViolation(t *testing.T) {
	sc, ok := conformance.ByName("bank")
	if !ok {
		t.Fatal("bank scenario missing")
	}
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(2)
	rh, _ := bench.AlgoByName("rh-norec")
	sys := rh.New(m, dev)
	err := sc.Drive(brokenSystem{sys}, conformance.ScaleTest, 2, 150, 1)
	if err == nil {
		t.Fatal("lossy system passed the bank conservation oracle")
	}
	if !strings.Contains(err.Error(), "bank") {
		t.Errorf("violation error %q does not name the scenario oracle", err)
	}
}

// brokenSystem drops one store per transaction inside the bank transfer:
// a conservation bug the invariant check must catch.
type brokenSystem struct{ tm.System }

func (b brokenSystem) NewThread() tm.Thread { return brokenThread{b.System.NewThread()} }

type brokenThread struct{ tm.Thread }

func (bt brokenThread) Run(body func(tm.Tx) error) error {
	return bt.Thread.Run(func(tx tm.Tx) error { return body(brokenTx{tx, new(int)}) })
}

type brokenTx struct {
	tm.Tx
	stores *int
}

func (bx brokenTx) Store(a mem.Addr, v uint64) {
	*bx.stores++
	if *bx.stores == 1 {
		// Swallow the first store of the transaction (the debit side of a
		// transfer): money is created from nothing.
		return
	}
	bx.Tx.Store(a, v)
}
