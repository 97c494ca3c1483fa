package htm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rhnorec/internal/mem"
)

// TestQuickIndexMatchesMap: the index must behave exactly like a Go map
// across any sequence of adds, lookups and resets — through several
// doublings, with resets landing at every table size, and across a forced
// generation wrap-around (the one reset that has to clear the table).
func TestQuickIndexMatchesMap(t *testing.T) {
	f := func(seed int64, keySpace uint16, startGen uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		space := int(keySpace)%2000 + 1
		var x index
		x.add(0, 0) // allocate, so the forced generation meets real cells
		x.reset()
		// A few resets short of the wrap, so the wrap happens mid-run over a
		// table that holds cells stamped with small generations too.
		x.gen = math.MaxUint32 - startGen%4
		ref := make(map[uint64]int32)
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 2:
				x.reset()
				clear(ref)
			case r < 60:
				k := uint64(rng.Intn(space)) * 8 // word addresses of distinct lines
				pos := int32(len(ref))
				_, had := ref[k]
				if added := x.add(k, pos); added == had {
					return false
				}
				if !had {
					ref[k] = pos
				}
			default:
				k := uint64(rng.Intn(space)) * 8
				pos, ok := x.find(k)
				want, wok := ref[k]
				if ok != wok || (ok && pos != want) {
					return false
				}
			}
			if x.n != len(ref) {
				return false
			}
		}
		for k, want := range ref {
			if pos, ok := x.find(k); !ok || pos != want {
				return false
			}
		}
		return x.gen != 0 && 2*x.n <= len(x.cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndexGenerationWrap pins the wrap itself: cells written in generation
// 1 must not come back to life when the counter returns to 1.
func TestIndexGenerationWrap(t *testing.T) {
	var x index
	x.add(42, 7) // generation 1
	x.gen = math.MaxUint32
	if _, ok := x.find(42); ok {
		t.Fatal("a generation-1 cell is live in generation MaxUint32")
	}
	x.add(43, 8)
	x.reset() // wraps
	if x.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", x.gen)
	}
	for _, k := range []uint64{42, 43} {
		if _, ok := x.find(k); ok {
			t.Fatalf("key %d survived the wrap-around reset", k)
		}
		if !x.add(k, 0) {
			t.Fatalf("key %d reported present after the wrap-around reset", k)
		}
	}
}

// TestIndexResetKeepsTable: reset is a stamp, not a sweep — the table a big
// transaction grew stays, and nothing of it is visible afterwards.
func TestIndexResetKeepsTable(t *testing.T) {
	var x index
	for k := uint64(0); k < 1000; k++ {
		x.add(k, int32(k))
	}
	size := len(x.cells)
	x.reset()
	if len(x.cells) != size || x.n != 0 {
		t.Fatalf("after reset: %d cells (want %d), n = %d", len(x.cells), size, x.n)
	}
	for k := uint64(0); k < 1000; k++ {
		if _, ok := x.find(k); ok {
			t.Fatalf("key %d visible after reset", k)
		}
	}
}

// TestReadWriteSetsFollowInsertionOrder: validation and CommitWrites walk
// entries, so it must hold every distinct address once, in first-touch
// order, with the write buffer carrying the last value put.
func TestReadWriteSetsFollowInsertionOrder(t *testing.T) {
	var r readSet
	var w writeSet
	var lines lineSet
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			a := mem.Addr(1 + (i*37)%50) // 50 distinct, each touched twice
			if _, ok := r.get(a); !ok {
				r.add(a, uint64(a)*3)
			}
			w.put(a, uint64(i))
			lines.add(mem.LineOf(a))
		}
		if r.len() != 50 || w.len() != 50 || lines.count() != 7 {
			t.Fatalf("round %d: %d reads, %d writes, %d lines; want 50, 50, 7", round, r.len(), w.len(), lines.count())
		}
		for i := 0; i < 50; i++ {
			a := mem.Addr(1 + (i*37)%50)
			if r.entries[i].addr != a || r.entries[i].val != uint64(a)*3 {
				t.Fatalf("round %d: read entry %d = %+v, want addr %d", round, i, r.entries[i], a)
			}
			if w.entries[i].Addr != a || w.entries[i].Value != uint64(i+50) {
				t.Fatalf("round %d: write entry %d = %+v, want {%d %d}", round, i, w.entries[i], a, i+50)
			}
			if v, ok := w.get(a); !ok || v != uint64(i+50) {
				t.Fatalf("round %d: writes.get(%d) = %d,%v", round, a, v, ok)
			}
		}
		r.reset()
		w.reset()
		lines.reset()
		if _, ok := r.get(15); ok {
			t.Fatalf("round %d: stale read visible after reset", round)
		}
		if _, ok := w.get(15); ok {
			t.Fatalf("round %d: stale write visible after reset", round)
		}
	}
}
