package rbtree_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tl2"
	"rhnorec/internal/tm"
)

// newTree builds a serial-TM tree for the single-threaded semantic tests.
func newTree(t *testing.T) (tm.System, tm.Thread, rbtree.Tree) {
	t.Helper()
	m := mem.New(1 << 22)
	sys := lockelision.NewSerial(m)
	th := sys.NewThread()
	var tree rbtree.Tree
	if err := th.Run(func(tx tm.Tx) error {
		tree = rbtree.New(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sys, th, tree
}

func TestEmptyTree(t *testing.T) {
	_, th, tree := newTree(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		if _, ok := tree.Get(tx, 5); ok {
			t.Error("Get on empty tree returned ok")
		}
		if tree.Size(tx) != 0 {
			t.Error("empty tree has nonzero size")
		}
		if _, ok := tree.Delete(tx, 5); ok {
			t.Error("Delete on empty tree returned ok")
		}
		return tree.CheckInvariants(tx)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	_, th, tree := newTree(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		for k := uint64(1); k <= 100; k++ {
			if _, replaced := tree.Put(tx, k*7%101, k); replaced {
				t.Errorf("fresh key %d reported replaced", k*7%101)
			}
		}
		if got := tree.Size(tx); got != 100 {
			t.Errorf("size = %d, want 100", got)
		}
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		for k := uint64(1); k <= 100; k++ {
			v, ok := tree.Get(tx, k*7%101)
			if !ok || v != k {
				t.Errorf("Get(%d) = %d,%v want %d", k*7%101, v, ok, k)
			}
		}
		// Replace.
		if prev, replaced := tree.Put(tx, 7, 999); !replaced || prev != 1 {
			t.Errorf("replace returned %d,%v", prev, replaced)
		}
		// Delete half.
		for k := uint64(1); k <= 50; k++ {
			if _, ok := tree.Delete(tx, k*7%101); !ok {
				t.Errorf("Delete(%d) missed", k*7%101)
			}
		}
		if got := tree.Size(tx); got != 50 {
			t.Errorf("size = %d, want 50", got)
		}
		return tree.CheckInvariants(tx)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKeysSorted(t *testing.T) {
	_, th, tree := newTree(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		for _, k := range []uint64{5, 3, 9, 1, 7, 2, 8, 6, 4} {
			tree.Put(tx, k, k*10)
		}
		keys := tree.Keys(tx)
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Errorf("Keys not sorted: %v", keys)
		}
		if len(keys) != 9 {
			t.Errorf("len(Keys) = %d, want 9", len(keys))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialVsMap runs a long random op sequence against a Go map
// oracle, checking invariants as it goes.
func TestDifferentialVsMap(t *testing.T) {
	_, th, tree := newTree(t)
	defer th.Close()
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(42))
	const keyRange = 200
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(keyRange))
		v := rng.Uint64()
		op := rng.Intn(3)
		if err := th.Run(func(tx tm.Tx) error {
			switch op {
			case 0: // put
				prev, replaced := tree.Put(tx, k, v)
				want, ok := oracle[k]
				if replaced != ok || (ok && prev != want) {
					t.Fatalf("iter %d: Put(%d) = %d,%v oracle %d,%v", i, k, prev, replaced, want, ok)
				}
			case 1: // get
				got, ok := tree.Get(tx, k)
				want, wok := oracle[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("iter %d: Get(%d) = %d,%v oracle %d,%v", i, k, got, ok, want, wok)
				}
			case 2: // delete
				got, ok := tree.Delete(tx, k)
				want, wok := oracle[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("iter %d: Delete(%d) = %d,%v oracle %d,%v", i, k, got, ok, want, wok)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		switch op {
		case 0:
			oracle[k] = v
		case 2:
			delete(oracle, k)
		}
		if i%250 == 0 {
			if err := th.Run(func(tx tm.Tx) error { return tree.CheckInvariants(tx) }); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
	if err := th.Run(func(tx tm.Tx) error {
		if got, want := tree.Size(tx), uint64(len(oracle)); got != want {
			t.Errorf("final size = %d, oracle %d", got, want)
		}
		return tree.CheckInvariants(tx)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInvariants: property — any insertion sequence yields a valid
// red-black tree containing exactly its distinct keys.
func TestQuickInvariants(t *testing.T) {
	f := func(keys []uint16) bool {
		m := mem.New(1 << 22)
		sys := lockelision.NewSerial(m)
		th := sys.NewThread()
		defer th.Close()
		ok := true
		err := th.Run(func(tx tm.Tx) error {
			tree := rbtree.New(tx)
			distinct := make(map[uint64]bool)
			for _, k := range keys {
				tree.Put(tx, uint64(k), 1)
				distinct[uint64(k)] = true
			}
			if e := tree.CheckInvariants(tx); e != nil {
				ok = false
			}
			if tree.Size(tx) != uint64(len(distinct)) {
				ok = false
			}
			// Delete every other key and recheck.
			i := 0
			for k := range distinct {
				if i%2 == 0 {
					if _, found := tree.Delete(tx, k); !found {
						ok = false
					}
				}
				i++
			}
			if e := tree.CheckInvariants(tx); e != nil {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// concurrentTreeStress drives the tree through a TM system with mixed
// operations, then validates invariants and key accounting.
func concurrentTreeStress(t *testing.T, sys tm.System, threads, ops int) {
	t.Helper()
	setup := sys.NewThread()
	var tree rbtree.Tree
	if err := setup.Run(func(tx tm.Tx) error {
		tree = rbtree.New(tx)
		for k := uint64(0); k < 64; k++ {
			tree.Put(tx, k*2, k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < ops; j++ {
				k := uint64(rng.Intn(128))
				var err error
				switch rng.Intn(10) {
				case 0, 1: // 20% put
					err = th.Run(func(tx tm.Tx) error {
						tree.Put(tx, k, uint64(j))
						return nil
					})
				case 2, 3: // 20% delete
					err = th.Run(func(tx tm.Tx) error {
						tree.Delete(tx, k)
						return nil
					})
				default: // 60% get
					err = th.RunReadOnly(func(tx tm.Tx) error {
						tree.Get(tx, k)
						return nil
					})
				}
				if err != nil {
					t.Errorf("op error: %v", err)
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	check := sys.NewThread()
	defer check.Close()
	if err := check.Run(func(tx tm.Tx) error { return tree.CheckInvariants(tx) }); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStressAllSystems(t *testing.T) {
	mk := map[string]func(m *mem.Memory) tm.System{
		"serial": func(m *mem.Memory) tm.System { return lockelision.NewSerial(m) },
		"lock-elision": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return lockelision.New(m, d, tm.RetryPolicy{})
		},
		"norec":      func(m *mem.Memory) tm.System { return norec.New(m, norec.Eager) },
		"norec-lazy": func(m *mem.Memory) tm.System { return norec.New(m, norec.Lazy) },
		"tl2":        func(m *mem.Memory) tm.System { return tl2.New(m, 0) },
		"hy-norec": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.NewHybridNOrec(m, d, tm.RetryPolicy{})
		},
		"rh-norec": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
		"rh-norec-tiny-htm": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{ReadCapacityLines: 16, WriteCapacityLines: 8})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			concurrentTreeStress(t, f(mem.New(1<<22)), 4, 250)
		})
	}
}
