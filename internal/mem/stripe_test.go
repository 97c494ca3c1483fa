package mem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestStripeOfInterleavesLines(t *testing.T) {
	m := New(1 << 16)
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

// TestCommitWritesTouchesOnlyWrittenStripes: a commit must not perturb the
// clocks of stripes outside its write set — that independence is what lets
// disjoint commits run in parallel and spares unrelated readers a
// revalidation. The write sets reach the highest stripe (the bitmap's top
// bit), repeat a stripe, and list addresses in descending order; each set is
// committed once with a failing validation (every window restored, no lock
// left held) and once for real (exactly the written stripes advance, every
// lock released).
func TestCommitWritesTouchesOnlyWrittenStripes(t *testing.T) {
	const n = Stripes
	// at is word off of the k-th line (k >= 1) that maps to stripe s.
	at := func(s, k, off int) Addr { return Addr((s+k*n)*LineWords + off) }
	sets := []struct {
		name   string
		writes []WriteEntry
	}{
		{"adjacent-lines", []WriteEntry{{at(0, 2, 0), 1}, {at(1, 2, 0), 2}}},
		{"highest-stripe", []WriteEntry{{at(n-1, 1, 0), 1}, {at(0, 1, 3), 2}}},
		{"repeated-stripe", []WriteEntry{
			{at(n-1, 1, 0), 1}, {at(n-1, 1, 5), 2},
			{at(n-1, 2, 0), 3}, {at(n/2, 1, 1), 4}, {at(n-1, 1, 0), 5},
		}},
		{"descending", []WriteEntry{
			{at(n-1, 3, 7), 1}, {at(n-1, 1, 0), 2}, {at(n/2, 1, 2), 3},
			{at(1, 1, 0), 4}, {at(0, 1, 0), 5},
		}},
	}
	for _, set := range sets {
		t.Run(fmt.Sprintf("%d/%s", n, set.name), func(t *testing.T) {
			m := New(1 << 16)
			writes := set.writes
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
					if m.StripeClock(s)&1 != 0 {
						t.Fatalf("%s: stripe %d left taken", when, s)
					}
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

// TestCommitWritesFailedValidationRestoresWindows: a failed multi-stripe
// commit must leave every touched stripe clock exactly where it was —
// restored, not advanced — since nothing was published.
func TestCommitWritesFailedValidationRestoresWindows(t *testing.T) {
	m := New(1 << 14)
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
	m := New(1 << 14)
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

// TestFailedCASRestoresItsStripe: a CASPlain whose comparison fails has
// taken its stripe (the clock is the lock) but published nothing, so it
// leaves the clock at the even value it found and retires no ticket — a
// reader watermarked there needs no revalidation — and leaves the stripe
// free for the next mutator.
func TestFailedCASRestoresItsStripe(t *testing.T) {
	m := New(1 << 10)
	a := m.NewThreadCache().Alloc(1)
	m.StorePlain(a, 5)
	s := m.StripeOf(a)
	c, tk := m.StripeClock(s), m.Ticket()
	if m.CASPlain(a, 4, 9) {
		t.Fatal("CAS with a wrong expected value succeeded")
	}
	if got := m.StripeClock(s); got != c {
		t.Errorf("failed CAS left the stripe clock at %d, want %d", got, c)
	}
	if m.Ticket() != tk {
		t.Error("failed CAS retired a ticket")
	}
	if !m.CASPlain(a, 5, 9) || m.StripeClock(s) != c+2 || m.Ticket() != tk+1 {
		t.Errorf("CAS after the failed one: clock %d (want %d), ticket +%d (want 1)", m.StripeClock(s), c+2, m.Ticket()-tk)
	}
}

// signalHook tells the test when CommitWrites is about to take its stripes.
type signalHook struct{ taking chan struct{} }

func (h *signalHook) Yield(HookOp, Addr) {}
func (h *signalHook) AtomicBegin()       { close(h.taking) }
func (h *signalHook) AtomicEnd()         {}

// TestCommitWritesWaitsWithNoWindowOpen: a CommitWrites that finds a later
// stripe taken must not hold its earlier stripes open while it waits — they
// read even, a LoadPlain of a word there returns the old value, and none of
// the commit's writes shows — until the test releases the later stripe and
// the commit takes them all.
func TestCommitWritesWaitsWithNoWindowOpen(t *testing.T) {
	m := New(1 << 12)
	a := m.NewThreadCache().Alloc(2 * LineWords)
	b := a + LineWords
	s0, s1 := m.StripeOf(a), m.StripeOf(b)
	if s0 > s1 {
		a, b, s0, s1 = b, a, s1, s0
	}
	m.StorePlain(a, 1)
	m.StorePlain(b, 1)
	c0, tk := m.StripeClock(s0), m.Ticket()
	c1 := m.StripeClock(s1)
	m.take(1 << s1) // the later stripe, held by hand

	h := &signalHook{taking: make(chan struct{})}
	m.SetHook(h)
	done := make(chan bool, 1)
	go func() { done <- m.CommitWrites([]WriteEntry{{a, 2}, {b, 2}}, nil) }()
	<-h.taking

	even := 0
	for i := 0; i < 1000; i++ {
		if m.StripeClock(s0)&1 == 0 {
			even++
		}
		runtime.Gosched()
	}
	if even == 0 {
		t.Errorf("stripe %d read odd in 1000 samples while its committer waited for stripe %d", s0, s1)
	}
	read := make(chan uint64, 1)
	go func() { read <- m.LoadPlain(a) }()
	select {
	case v := <-read:
		if v != 1 {
			t.Errorf("LoadPlain of the waiting commit's first word = %d, want the old 1", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("LoadPlain waited on stripe %d while its committer waited for stripe %d", s0, s1)
	}
	// The committer may hold stripe s0 for the instant before it finds s1
	// taken again, but never moves it past that.
	if c := m.StripeClock(s0); m.Ticket() != tk || c != c0 && c != c0+1 {
		t.Errorf("waiting commit moved the ticket (+%d) or stripe %d (%d, want %d)", m.Ticket()-tk, s0, c, c0)
	}
	select {
	case <-done:
		t.Fatal("CommitWrites finished while one of its stripes was held")
	default:
	}

	m.release(1<<s1, restore) // release it as a failed mutator does
	if !<-done {
		t.Fatal("commit failed")
	}
	m.SetHook(nil)
	if m.LoadPlain(a) != 2 || m.LoadPlain(b) != 2 || m.StripeClock(s0) != c0+2 || m.StripeClock(s1) != c1+2 {
		t.Errorf("after the release: words %d %d, clocks +%d +%d; want 2 2, +2 +2",
			m.LoadPlain(a), m.LoadPlain(b), m.StripeClock(s0)-c0, m.StripeClock(s1)-c1)
	}
}
