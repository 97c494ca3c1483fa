package bench

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// cleanRun drives wl's instance to a passing Check on a fresh serial
// system and returns both, for a test to corrupt the state and check again.
func cleanRun(t *testing.T, wl Workload) (conformance.Instance, tm.System) {
	t.Helper()
	sys := SerialAlgo().New(mem.New(1<<20), nil)
	inst := wl.New()
	if err := conformance.Drive(sys, wl.Name, inst, 2, 100, 1); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return inst, sys
}

// corruptAndCheck applies one transaction of damage and returns Check's
// verdict on the result.
func corruptAndCheck(t *testing.T, inst conformance.Instance, sys tm.System, damage func(tx tm.Tx)) error {
	t.Helper()
	th := sys.NewThread()
	err := th.Run(func(tx tm.Tx) error { damage(tx); return nil })
	th.Close()
	if err != nil {
		t.Fatal(err)
	}
	return inst.Check(sys)
}

// TestBlockOracleIsNotVacuous: a transaction that increments only line 0 of
// a block (an op torn in half) fails the Disjoint and Hotspot oracles.
func TestBlockOracleIsNotVacuous(t *testing.T) {
	for _, wl := range []Workload{Disjoint(DisjointConfig{}), Hotspot(HotspotConfig{})} {
		t.Run(wl.Name, func(t *testing.T) {
			inst, sys := cleanRun(t, wl)
			w := inst.(*blockWorkload)
			err := corruptAndCheck(t, inst, sys, func(tx tm.Tx) {
				a := w.line(0, 0)
				tx.Store(a, tx.Load(a)+1)
			})
			if err == nil {
				t.Fatal("Check passed a block whose line 0 ran ahead of the others")
			}
		})
	}
}

// TestOrderedOracleIsNotVacuous: a corrupted size word fails the rbtree and
// skip-list oracles. Both headers keep the size in word 1.
func TestOrderedOracleIsNotVacuous(t *testing.T) {
	cfg := RBTreeConfig{Size: 128, MutationRatio: 0.4}
	for _, tc := range []struct {
		wl   Workload
		head func(m orderedMap) mem.Addr
	}{
		{RBTree(cfg), func(m orderedMap) mem.Addr { return m.(rbtree.Tree).Head() }},
		{SkipListWorkload(cfg), func(m orderedMap) mem.Addr { return m.(txds.SkipList).Head() }},
	} {
		t.Run(tc.wl.Name, func(t *testing.T) {
			inst, sys := cleanRun(t, tc.wl)
			size := tc.head(inst.(*orderedWorkload).m) + 1
			err := corruptAndCheck(t, inst, sys, func(tx tm.Tx) {
				tx.Store(size, tx.Load(size)+1)
			})
			if err == nil {
				t.Fatal("Check passed a structure whose size word is off by one")
			}
		})
	}
}
