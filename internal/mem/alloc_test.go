package mem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, wantSize int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 6}, {6, 6}, {7, 8}, {8, 8},
		{9, 12}, {17, 24}, {100, 128}, {4096, 4096},
	}
	for _, c := range cases {
		cl := classFor(c.n)
		if cl < 0 {
			t.Errorf("classFor(%d) = -1", c.n)
			continue
		}
		if classSizes[cl] != c.wantSize {
			t.Errorf("classFor(%d) -> size %d, want %d", c.n, classSizes[cl], c.wantSize)
		}
	}
	if classFor(4097) != -1 {
		t.Error("classFor(4097) should be oversize (-1)")
	}
}

func TestClassSizesSortedAndCounted(t *testing.T) {
	if len(classSizes) != numClasses {
		t.Fatalf("numClasses = %d but len(classSizes) = %d", numClasses, len(classSizes))
	}
	for i := 1; i < len(classSizes); i++ {
		if classSizes[i] <= classSizes[i-1] {
			t.Fatalf("classSizes not strictly increasing at %d", i)
		}
	}
}

func TestAllocZeroesReusedBlocks(t *testing.T) {
	m := New(1 << 14)
	c := m.NewThreadCache()
	a := c.Alloc(8)
	for i := 0; i < 8; i++ {
		m.StorePlain(a+Addr(i), ^uint64(0))
	}
	c.Free(a, 8)
	b := c.Alloc(8)
	if a != b {
		t.Logf("allocator did not reuse block immediately (a=%d b=%d); still checking zeroing", a, b)
	}
	for i := 0; i < 8; i++ {
		if got := m.LoadPlain(b + Addr(i)); got != 0 {
			t.Fatalf("reused block word %d = %d, want 0", i, got)
		}
	}
}

// TestAllocZeroesFreshCarves: a block carved fresh from the arena is zeroed
// too, not assumed zero, so words stored above AllocMark before the carve do
// not leak into a class-sized or an oversized block.
func TestAllocZeroesFreshCarves(t *testing.T) {
	const dirty = 6000
	m := New(1 << 14)
	mark := m.AllocMark()
	for i := Addr(0); i < dirty; i++ {
		m.StorePlain(mark+i, ^uint64(0))
	}
	c := m.NewThreadCache()
	for _, n := range []int{8, 5000} {
		a := c.Alloc(n)
		if a < mark || a+Addr(n) > mark+dirty {
			t.Fatalf("Alloc(%d) = [%d,%d), outside the dirtied words [%d,%d)", n, a, a+Addr(n), mark, mark+dirty)
		}
		for i := 0; i < n; i++ {
			if got := m.LoadPlain(a + Addr(i)); got != 0 {
				t.Fatalf("fresh %d-word block word %d = %#x, want 0", n, i, got)
			}
		}
	}
}

// TestAllocZeroesAfterEveryStore: every kind of store raises the touched
// frontier, so a word that CASPlain, AddPlain or a CommitWrites publish
// dirtied above AllocMark is cleared when a fresh class-sized or oversized
// block is carved over it. (Package htm's TestCommitAboveAllocMarkIsCleared
// drives the publish through a hardware commit.)
func TestAllocZeroesAfterEveryStore(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(m *Memory, a Addr)
	}{
		{"CASPlain", func(m *Memory, a Addr) {
			if !m.CASPlain(a, 0, ^uint64(0)) {
				t.Fatalf("CASPlain on a virgin word failed")
			}
		}},
		{"AddPlain", func(m *Memory, a Addr) { m.AddPlain(a, 41) }},
		{"CommitWrites", func(m *Memory, a Addr) {
			if !m.CommitWrites([]WriteEntry{{Addr: a - 9, Value: 3}, {Addr: a, Value: 5}}, nil) {
				t.Fatalf("CommitWrites without a validator failed")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{8, 5000} {
				m := New(1 << 14)
				mark := m.AllocMark()
				// The first refill of the 8-word class carves 64 blocks, 512
				// words; the 5000-word block is carved at mark exactly.
				tc.store(m, mark+300)
				c := m.NewThreadCache()
				blocks := 1
				if n == 8 {
					blocks = 64
				}
				for range blocks {
					a := c.Alloc(n)
					if a < mark || a+Addr(n) > mark+5000 {
						t.Fatalf("Alloc(%d) = %d, outside the carve at %d", n, a, mark)
					}
					for i := range n {
						if got := m.LoadPlain(a + Addr(i)); got != 0 {
							t.Fatalf("fresh %d-word block word %d (address %d) = %#x after %s, want 0", n, i, a+Addr(i), got, tc.name)
						}
					}
				}
			}
		})
	}
}

// TestVirginCarveIsNotCleared: a carve clears only the words below the
// touched frontier. Sentinels planted in the word array behind the
// frontier's back show which words the clear wrote: the one below it is
// cleared, the ones above it survive, inside the block and in a second
// block carved wholly above it.
func TestVirginCarveIsNotCleared(t *testing.T) {
	const n, sentinel = 5000, 0x5e5e
	m := New(1 << 14)
	mark := m.AllocMark()
	m.StorePlain(mark+10, 7)
	if f := Addr(m.frontier.Load()); f != mark+11 {
		t.Fatalf("frontier after a store at %d = %d, want %d", mark+10, f, mark+11)
	}
	below, above, beyond := mark+3, mark+100, mark+n+100
	for _, a := range []Addr{below, above, beyond} {
		m.words[a] = sentinel
	}
	c := m.NewThreadCache()
	if a := c.Alloc(n); a != mark {
		t.Fatalf("first oversized carve at %d, want %d", a, mark)
	}
	if m.words[below] != 0 || m.words[mark+10] != 0 {
		t.Fatalf("the words below the frontier were not cleared: %#x, %#x", m.words[below], m.words[mark+10])
	}
	if m.words[above] != sentinel {
		t.Fatalf("the word above the frontier was cleared: %#x", m.words[above])
	}
	if a := c.Alloc(n); a != mark+n {
		t.Fatalf("second oversized carve at %d, want %d", a, mark+n)
	}
	if m.words[beyond] != sentinel {
		t.Fatalf("a carve wholly above the frontier was cleared: %#x", m.words[beyond])
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	m := New(1 << 16)
	c := m.NewThreadCache()
	seen := make(map[Addr]bool)
	for i := 0; i < 500; i++ {
		a := c.Alloc(6)
		if seen[a] {
			t.Fatalf("Alloc returned live address %d twice", a)
		}
		seen[a] = true
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	before := m.LiveBlocks()
	c.Free(Nil, 8)
	if m.LiveBlocks() != before {
		t.Error("Free(Nil) changed live-block accounting")
	}
}

func TestLiveAccountingBalances(t *testing.T) {
	m := New(1 << 16)
	c := m.NewThreadCache()
	rng := rand.New(rand.NewSource(1))
	type blk struct {
		a Addr
		n int
	}
	var live []blk
	for i := 0; i < 2000; i++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			n := 1 + rng.Intn(64)
			live = append(live, blk{c.Alloc(n), n})
		} else {
			j := rng.Intn(len(live))
			c.Free(live[j].a, live[j].n)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, b := range live {
		c.Free(b.a, b.n)
	}
	c.Drain()
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d after freeing everything", m.LiveBlocks())
	}
	if m.LiveWords() != 0 {
		t.Errorf("LiveWords = %d after freeing everything", m.LiveWords())
	}
}

func TestHugeAllocationRoundTrip(t *testing.T) {
	m := New(1 << 16)
	c := m.NewThreadCache()
	a := c.Alloc(10000)
	m.StorePlain(a+9999, 5)
	c.Free(a, 10000)
	b := c.Alloc(10000)
	if b != a {
		t.Errorf("huge block not recycled: got %d, want %d", b, a)
	}
	if m.LoadPlain(b+9999) != 0 {
		t.Error("recycled huge block not zeroed")
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	m := New(64)
	c := m.NewThreadCache()
	defer func() {
		if recover() == nil {
			t.Error("no panic on arena exhaustion")
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Alloc(8)
	}
}

// TestConcurrentAllocFree hammers the central lists from several thread
// caches and verifies no block is ever handed to two owners at once.
func TestConcurrentAllocFree(t *testing.T) {
	m := New(1 << 20)
	const threads = 8
	var mu sync.Mutex
	owned := make(map[Addr]int)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := m.NewThreadCache()
			rng := rand.New(rand.NewSource(int64(id)))
			var mine []Addr
			for i := 0; i < 1000; i++ {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					a := c.Alloc(8)
					mu.Lock()
					if prev, dup := owned[a]; dup {
						mu.Unlock()
						t.Errorf("block %d double-allocated (owners %d and %d)", a, prev, id)
						return
					}
					owned[a] = id
					mu.Unlock()
					mine = append(mine, a)
				} else {
					j := rng.Intn(len(mine))
					a := mine[j]
					mu.Lock()
					delete(owned, a)
					mu.Unlock()
					c.Free(a, 8)
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
			for _, a := range mine {
				mu.Lock()
				delete(owned, a)
				mu.Unlock()
				c.Free(a, 8)
			}
			c.Drain()
		}(id)
	}
	wg.Wait()
	if m.LiveBlocks() != 0 {
		t.Errorf("LiveBlocks = %d at end", m.LiveBlocks())
	}
}

// TestQuickAllocSizes property: any size in [1, 4096] yields a block whose
// words are all addressable and zero.
func TestQuickAllocSizes(t *testing.T) {
	m := New(1 << 20)
	c := m.NewThreadCache()
	f := func(raw uint16) bool {
		n := 1 + int(raw)%4096
		a := c.Alloc(n)
		for i := 0; i < n; i++ {
			if m.LoadPlain(a+Addr(i)) != 0 {
				return false
			}
		}
		c.Free(a, n)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRefillBatchPositive(t *testing.T) {
	for cl := range classSizes {
		if refillBatch(cl) < 2 {
			t.Errorf("refillBatch(%d) = %d, want >= 2", cl, refillBatch(cl))
		}
	}
}
