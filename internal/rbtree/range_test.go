package rbtree_test

import (
	"math/rand"
	"testing"

	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
)

func TestMinMaxRange(t *testing.T) {
	sys := lockelision.NewSerial(mem.New(1 << 20))
	th := sys.NewThread()
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		tree := rbtree.New(tx)
		if _, _, ok := tree.Min(tx); ok {
			t.Error("Min on empty tree returned ok")
		}
		if _, _, ok := tree.Max(tx); ok {
			t.Error("Max on empty tree returned ok")
		}
		for _, k := range []uint64{50, 10, 90, 30, 70} {
			tree.Put(tx, k, k*2)
		}
		if k, v, ok := tree.Min(tx); !ok || k != 10 || v != 20 {
			t.Errorf("Min = %d,%d,%v", k, v, ok)
		}
		if k, v, ok := tree.Max(tx); !ok || k != 90 || v != 180 {
			t.Errorf("Max = %d,%d,%v", k, v, ok)
		}
		var got []uint64
		tree.Range(tx, 20, 80, func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		want := []uint64{30, 50, 70}
		if len(got) != len(want) {
			t.Fatalf("Range keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range keys = %v, want %v", got, want)
			}
		}
		// Early stop.
		count := 0
		tree.Range(tx, 0, 100, func(uint64, uint64) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Errorf("early-stop Range visited %d, want 2", count)
		}
		// Inclusive bounds.
		var incl []uint64
		tree.Range(tx, 10, 90, func(k, _ uint64) bool { incl = append(incl, k); return true })
		if len(incl) != 5 {
			t.Errorf("inclusive Range visited %d keys, want 5", len(incl))
		}
		// Empty window.
		tree.Range(tx, 55, 65, func(k, _ uint64) bool {
			t.Errorf("unexpected key %d in empty window", k)
			return true
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMatchesKeysRandomized(t *testing.T) {
	sys := lockelision.NewSerial(mem.New(1 << 21))
	th := sys.NewThread()
	defer th.Close()
	rng := rand.New(rand.NewSource(5))
	if err := th.Run(func(tx tm.Tx) error {
		tree := rbtree.New(tx)
		for i := 0; i < 300; i++ {
			tree.Put(tx, uint64(rng.Intn(1000)), uint64(i))
		}
		keys := tree.Keys(tx)
		for trial := 0; trial < 20; trial++ {
			lo := uint64(rng.Intn(1000))
			hi := lo + uint64(rng.Intn(300))
			var got []uint64
			tree.Range(tx, lo, hi, func(k, _ uint64) bool { got = append(got, k); return true })
			var want []uint64
			for _, k := range keys {
				if k >= lo && k <= hi {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: Range [%d,%d] = %d keys, want %d", trial, lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Range order mismatch", trial)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
