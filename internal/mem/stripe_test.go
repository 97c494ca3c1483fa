package mem

import (
	"fmt"
	"sync"
	"testing"
)

func TestNewStripedRoundsAndClamps(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {63, 64}, {64, 64},
		{65, 128}, {MaxStripes, MaxStripes}, {MaxStripes + 1, MaxStripes},
	}
	for _, c := range cases {
		if got := NewStriped(1024, c.in).StripeCount(); got != c.want {
			t.Errorf("NewStriped(_, %d).StripeCount() = %d, want %d", c.in, got, c.want)
		}
	}
	if got := New(1024).StripeCount(); got != DefaultStripes {
		t.Errorf("New stripe count = %d, want %d", got, DefaultStripes)
	}
}

func TestStripeOfInterleavesLines(t *testing.T) {
	m := NewStriped(1<<16, 64)
	for _, c := range []struct {
		a    Addr
		want int
	}{{8, 1}, {15, 1}, {16, 2}, {8 * 64, 0}, {8*64 + 8, 1}, {8 * 63, 63}} {
		if got := m.StripeOf(c.a); got != c.want {
			t.Errorf("StripeOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	// Words of one line never straddle stripes.
	for a := Addr(8); a < 8+LineWords; a++ {
		if m.StripeOf(a) != m.StripeOf(8) {
			t.Fatalf("line 1 straddles stripes at word %d", a)
		}
	}
}

// TestSingleStripeDegenerate: -stripes 1 reproduces the original
// global-seqlock substrate — one clock, every mutation serializes on it.
func TestSingleStripeDegenerate(t *testing.T) {
	m := NewStriped(1024, 1)
	c := m.NewThreadCache()
	a := c.Alloc(2 * LineWords)
	b := a + LineWords
	if m.StripeOf(a) != 0 || m.StripeOf(b) != 0 {
		t.Fatal("single-stripe memory mapped addresses off stripe 0")
	}
	before := m.StripeClock(0)
	m.StorePlain(a, 1)
	m.StorePlain(b, 2)
	if got := m.StripeClock(0); got != before+4 {
		t.Errorf("stripe clock advanced %d, want 4 (two serialized mutations)", got-before)
	}
	if 2*m.Ticket() != m.StripeClock(0) {
		t.Errorf("with one stripe 2*Ticket()=%d should track the stripe clock %d", 2*m.Ticket(), m.StripeClock(0))
	}
}

// TestCommitWritesTouchesOnlyWrittenStripes: a commit must not perturb the
// clocks of stripes outside its write set — that independence is what lets
// disjoint commits run in parallel and spares unrelated readers a
// revalidation. CommitWrites walks only the (stripes+63)/64 bitmap words a
// memory uses, so the table covers every word-count edge (1, 64, 65 -> 128,
// 1024 stripes) with write sets that reach the highest stripe, repeat a
// stripe, and list addresses in descending order; each set is committed once
// with a failing validation (every window restored, no lock left held) and
// once for real (exactly the written stripes advance, every lock released).
func TestCommitWritesTouchesOnlyWrittenStripes(t *testing.T) {
	// at is word off of the k-th line (k >= 1) that maps to stripe s.
	at := func(m *Memory, s, k, off int) Addr {
		return Addr((s+k*m.StripeCount())*LineWords + off)
	}
	sets := []struct {
		name   string
		writes func(m *Memory) []WriteEntry
	}{
		{"adjacent-lines", func(m *Memory) []WriteEntry {
			a := Addr(2 * m.StripeCount() * LineWords)
			return []WriteEntry{{a, 1}, {a + LineWords, 2}}
		}},
		{"highest-stripe", func(m *Memory) []WriteEntry {
			n := m.StripeCount()
			return []WriteEntry{{at(m, n-1, 1, 0), 1}, {at(m, 0, 1, 3), 2}}
		}},
		{"repeated-stripe", func(m *Memory) []WriteEntry {
			n := m.StripeCount()
			return []WriteEntry{
				{at(m, n-1, 1, 0), 1}, {at(m, n-1, 1, 5), 2},
				{at(m, n-1, 2, 0), 3}, {at(m, n/2, 1, 1), 4}, {at(m, n-1, 1, 0), 5},
			}
		}},
		{"descending", func(m *Memory) []WriteEntry {
			n := m.StripeCount()
			return []WriteEntry{
				{at(m, n-1, 3, 7), 1}, {at(m, n-1, 1, 0), 2}, {at(m, n/2, 1, 2), 3},
				{at(m, 1%n, 1, 0), 4}, {at(m, 0, 1, 0), 5},
			}
		}},
	}
	for _, stripes := range []int{1, 64, 65, 1024} {
		for _, set := range sets {
			t.Run(fmt.Sprintf("%d/%s", stripes, set.name), func(t *testing.T) {
				m := NewStriped(1<<16, stripes)
				n := m.StripeCount()
				writes := set.writes(m)
				want := map[int]bool{}
				final := map[Addr]uint64{}
				for _, w := range writes {
					want[m.StripeOf(w.Addr)] = true
					final[w.Addr] = w.Value
				}
				clocks := func() []uint64 {
					c := make([]uint64, n)
					for s := range c {
						c[s] = m.StripeClock(s)
					}
					return c
				}
				unlocked := func(when string) {
					for s := range m.stripes {
						if !m.stripes[s].wb.TryLock() {
							t.Fatalf("%s: stripe %d left locked", when, s)
						}
						m.stripes[s].wb.Unlock()
					}
				}
				before, tk := clocks(), m.Ticket()

				var open []uint64
				if m.CommitWrites(writes, func() bool { open = clocks(); return false }) {
					t.Fatal("commit succeeded despite failing validation")
				}
				for s := range open {
					expect := before[s]
					if want[s] {
						expect++ // its window is open
					}
					if open[s] != expect {
						t.Errorf("during validation stripe %d read %d, want %d", s, open[s], expect)
					}
				}
				for s, c := range clocks() {
					if c != before[s] {
						t.Errorf("failed commit left stripe %d at %d, want it restored to %d", s, c, before[s])
					}
				}
				for a := range final {
					if v := m.LoadPlain(a); v != 0 {
						t.Errorf("failed commit stored %d at %d", v, a)
					}
				}
				if m.Ticket() != tk {
					t.Error("failed commit retired a ticket")
				}
				unlocked("after the failed commit")

				if !m.CommitWrites(writes, nil) {
					t.Fatal("commit failed")
				}
				for s, c := range clocks() {
					if want[s] && c != before[s]+2 {
						t.Errorf("written stripe %d advanced %d, want one mutation (2)", s, c-before[s])
					}
					if !want[s] && c != before[s] {
						t.Errorf("commit perturbed untouched stripe %d", s)
					}
				}
				for a, v := range final {
					if got := m.LoadPlain(a); got != v {
						t.Errorf("word %d = %d after commit, want %d", a, got, v)
					}
				}
				if m.Ticket() != tk+1 {
					t.Errorf("ticket advanced %d, want 1 per publish", m.Ticket()-tk)
				}
				unlocked("after the commit")
			})
		}
	}
}

// TestCommitWritesFailedValidationRestoresWindows: a failed multi-stripe
// commit must leave every touched stripe clock exactly where it was —
// restored, not advanced — since nothing was published.
func TestCommitWritesFailedValidationRestoresWindows(t *testing.T) {
	m := NewStriped(1<<14, 64)
	c := m.NewThreadCache()
	a := c.Alloc(2 * LineWords)
	s0, s1 := m.StripeOf(a), m.StripeOf(a+LineWords)
	c0, c1 := m.StripeClock(s0), m.StripeClock(s1)
	tk := m.Ticket()
	var sawOpen bool
	ok := m.CommitWrites([]WriteEntry{{a, 1}, {a + LineWords, 2}}, func() bool {
		// Validation runs with every touched window open (odd).
		sawOpen = m.StripeClock(s0)&1 == 1 && m.StripeClock(s1)&1 == 1
		return false
	})
	if ok {
		t.Fatal("commit succeeded despite failing validation")
	}
	if !sawOpen {
		t.Error("validation did not observe the touched seqlock windows open")
	}
	if m.StripeClock(s0) != c0 || m.StripeClock(s1) != c1 {
		t.Error("failed commit did not restore the stripe clocks")
	}
	if m.Ticket() != tk {
		t.Error("failed commit retired a ticket")
	}
}

// TestSnapshotConsistentAcrossStripes: Snapshot must never observe a
// cross-stripe commit half-applied. A writer keeps two words in different
// stripes summing to a constant; every snapshot must agree.
func TestSnapshotConsistentAcrossStripes(t *testing.T) {
	const total = 1000
	m := NewStriped(1<<14, 64)
	c := m.NewThreadCache()
	a := c.Alloc(2 * LineWords)
	b := a + LineWords
	m.StorePlain(a, total)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := i % total
			m.CommitWrites([]WriteEntry{{a, v}, {b, total - v}}, nil)
		}
	}()
	dst := make([]uint64, 2*LineWords)
	for i := 0; i < 3000; i++ {
		m.Snapshot(a, dst)
		if dst[0]+dst[LineWords] != total {
			t.Errorf("snapshot tore across stripes: %d + %d != %d", dst[0], dst[LineWords], total)
			break
		}
	}
	close(stop)
	wg.Wait()
}
