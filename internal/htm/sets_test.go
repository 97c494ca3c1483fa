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

// TestReadWriteSetsFollowInsertionOrder: validation walks the line log's
// records and CommitWrites its write entries, so the log must hold every
// distinct line once, in first-touch order (a read or a write), with
// exactly the words read from it and the words written to it, and the
// entries every distinct address written once, in first-write order,
// carrying the last value put. Each line's first read and first write must
// report themselves, since the capacity counts rest on them. The second and
// third rounds run over records the first left behind: a word not read or
// written this round must not read as logged or written.
func TestReadWriteSetsFollowInsertionOrder(t *testing.T) {
	var x lineLog
	for round := 0; round < 3; round++ {
		// Round 0 touches 50 distinct words, each twice; later rounds only
		// the even ones, so the odd slots of every record go stale. Every
		// op but each third stores; every second one loads.
		step := mem.Addr(1 + min(round, 1))
		var wantLines []mem.Line
		var wantEntries []mem.WriteEntry
		entryOf := map[mem.Addr]int{}
		readWords := map[mem.Addr]uint64{}
		readLines, writeLines := map[mem.Line]bool{}, map[mem.Line]bool{}
		for i := 0; i < 100; i++ {
			a := mem.Addr(1 + (i*37)%50)
			if a%step != 0 {
				continue
			}
			l, w := mem.LineOf(a), uint(a)%mem.LineWords
			n := x.lineCount()
			rl := x.open(l)
			if x.lineCount() > n {
				wantLines = append(wantLines, l)
			}
			if i%3 != 0 {
				if first := x.put(rl, a, uint64(i)); first == writeLines[l] {
					t.Fatalf("round %d: put to word %d reports first write of its line %v", round, a, first)
				}
				writeLines[l] = true
				if at, ok := entryOf[a]; ok {
					wantEntries[at].Value = uint64(i)
				} else {
					entryOf[a] = len(wantEntries)
					wantEntries = append(wantEntries, mem.WriteEntry{Addr: a, Value: uint64(i)})
				}
			}
			if i%2 == 0 && rl.have&(1<<w) == 0 {
				if _, ok := readWords[a]; ok {
					t.Fatalf("round %d: word %d logged but its bit is clear", round, a)
				}
				v := uint64(a)*3 + uint64(round)
				if first := x.log(rl, w, v); first == readLines[l] {
					t.Fatalf("round %d: log of word %d reports first read of its line %v", round, a, first)
				}
				readLines[l] = true
				readWords[a] = v
			}
		}
		if x.len() != len(readWords) || x.lineCount() != 7 || len(wantLines) != 7 ||
			x.readLines != len(readLines) || x.writeLines != len(writeLines) {
			t.Fatalf("round %d: %d words read, %d lines (%d read, %d written); want %d, 7 (%d, %d)",
				round, x.len(), x.lineCount(), x.readLines, x.writeLines, len(readWords), len(readLines), len(writeLines))
		}
		for i, l := range wantLines {
			rl := &x.lines[i]
			if rl.line != l {
				t.Fatalf("round %d: line %d = %d, want %d", round, i, rl.line, l)
			}
			for w := uint(0); w < mem.LineWords; w++ {
				a := mem.Addr(l)*mem.LineWords + mem.Addr(w)
				v, read := readWords[a]
				if logged := rl.have&(1<<w) != 0; logged != read || logged && rl.vals[w] != v {
					t.Fatalf("round %d: word %d logged = %v (value %d), want %v (%d)", round, a, logged, rl.vals[w], read, v)
				}
				at, wrote := entryOf[a]
				if got := rl.wrote&(1<<w) != 0; got != wrote || got && x.entries[rl.pos[w]] != wantEntries[at] {
					t.Fatalf("round %d: word %d written = %v, want %v", round, a, got, wrote)
				}
			}
		}
		if len(x.entries) != len(wantEntries) {
			t.Fatalf("round %d: %d write entries, want %d", round, len(x.entries), len(wantEntries))
		}
		for i, e := range wantEntries {
			if x.entries[i] != e {
				t.Fatalf("round %d: write entry %d = %+v, want %+v", round, i, x.entries[i], e)
			}
		}
		x.reset()
		if x.len() != 0 || x.lineCount() != 0 || x.readLines != 0 || x.writeLines != 0 || len(x.entries) != 0 {
			t.Fatalf("round %d: %d words on %d lines, %d entries after reset", round, x.len(), x.lineCount(), len(x.entries))
		}
	}
}
