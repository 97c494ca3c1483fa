package htm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rhnorec/internal/mem"
)

// TestQuickIndexMatchesMap: the index must behave exactly like a Go map
// across any sequence of inserts, lookups and resets — through several
// doublings, with resets landing at every table size, and across a forced
// generation wrap-around (the one reset that has to clear the table).
func TestQuickIndexMatchesMap(t *testing.T) {
	f := func(seed int64, keySpace uint16, startGen uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		space := int(keySpace)%2000 + 1
		var x index
		x.findOrAdd(0, 0) // allocate, so the forced generation meets real cells
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
				want, had := ref[k]
				if !had {
					ref[k], want = pos, pos
				}
				if at, added := x.findOrAdd(k, pos); added == had || at != want {
					return false
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
	x.findOrAdd(42, 7) // generation 1
	x.gen = math.MaxUint32
	if _, ok := x.find(42); ok {
		t.Fatal("a generation-1 cell is live in generation MaxUint32")
	}
	x.findOrAdd(43, 8)
	x.reset() // wraps
	if x.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", x.gen)
	}
	for _, k := range []uint64{42, 43} {
		if _, ok := x.find(k); ok {
			t.Fatalf("key %d survived the wrap-around reset", k)
		}
		if _, added := x.findOrAdd(k, 0); !added {
			t.Fatalf("key %d reported present after the wrap-around reset", k)
		}
	}
}

// TestIndexResetKeepsTable: reset is a stamp, not a sweep — the table a big
// transaction grew stays, and nothing of it is visible afterwards.
func TestIndexResetKeepsTable(t *testing.T) {
	var x index
	for k := uint64(0); k < 1000; k++ {
		x.findOrAdd(k, int32(k))
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

// TestReadWriteSetsFollowInsertionOrder: validation walks the read log and
// CommitWrites the write buffer, so the read log must hold every distinct
// line once, in first-touch order, with exactly the words read from it, and
// the write buffer every distinct address once, in first-touch order,
// carrying the last value put. The second and third rounds run over records
// the first left behind: a word not read this round must not read as logged.
func TestReadWriteSetsFollowInsertionOrder(t *testing.T) {
	var r readSet
	var w writeSet
	var lines lineSet
	for round := 0; round < 3; round++ {
		// Round 0 touches 50 distinct words, each twice; later rounds only
		// the even ones, so the odd slots of every record go stale.
		step := 1 + min(round, 1)
		var wantLines []mem.Line
		wantWords := map[mem.Addr]bool{}
		for i := 0; i < 100; i++ {
			a := mem.Addr(1 + (i*37)%50)
			w.put(a, uint64(i))
			lines.add(mem.LineOf(a))
			if a%mem.Addr(step) != 0 {
				continue
			}
			rl, opened := r.open(mem.LineOf(a))
			if opened {
				wantLines = append(wantLines, mem.LineOf(a))
			}
			if word := uint(a) % mem.LineWords; rl.have&(1<<word) == 0 {
				if wantWords[a] {
					t.Fatalf("round %d: word %d logged but its bit is clear", round, a)
				}
				r.log(rl, word, uint64(a)*3+uint64(round))
				wantWords[a] = true
			}
		}
		if r.len() != len(wantWords) || r.lineCount() != 7 || w.len() != 50 || lines.count() != 7 {
			t.Fatalf("round %d: %d words on %d read lines, %d writes on %d lines; want %d on 7, 50 on 7",
				round, r.len(), r.lineCount(), w.len(), lines.count(), len(wantWords))
		}
		for i, l := range wantLines {
			rl := &r.lines[i]
			if rl.line != l {
				t.Fatalf("round %d: read line %d = %d, want %d", round, i, rl.line, l)
			}
			for word := 0; word < mem.LineWords; word++ {
				a := mem.Addr(l)*mem.LineWords + mem.Addr(word)
				logged := rl.have&(1<<word) != 0
				if logged != wantWords[a] {
					t.Fatalf("round %d: word %d logged = %v, want %v", round, a, logged, wantWords[a])
				}
				if logged && rl.vals[word] != uint64(a)*3+uint64(round) {
					t.Fatalf("round %d: word %d logged as %d", round, a, rl.vals[word])
				}
			}
		}
		for i := 0; i < 50; i++ {
			a := mem.Addr(1 + (i*37)%50)
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
		if r.len() != 0 || r.lineCount() != 0 {
			t.Fatalf("round %d: %d words on %d lines after reset", round, r.len(), r.lineCount())
		}
		if _, ok := w.get(15); ok {
			t.Fatalf("round %d: stale write visible after reset", round)
		}
	}
}
