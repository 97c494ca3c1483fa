package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewReservesNil(t *testing.T) {
	m := New(1024)
	if m.Size() != 1024 {
		t.Fatalf("Size = %d, want 1024", m.Size())
	}
	c := m.NewThreadCache()
	a := c.Alloc(1)
	if a == Nil {
		t.Fatal("Alloc returned the nil address")
	}
	if a < LineWords {
		t.Fatalf("Alloc returned %d inside the reserved first line", a)
	}
}

func TestNewClampsTinySizes(t *testing.T) {
	m := New(1)
	if m.Size() < 2*LineWords {
		t.Fatalf("Size = %d, want at least %d", m.Size(), 2*LineWords)
	}
}

func TestLoadStorePlain(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(4)
	m.StorePlain(a, 42)
	m.StorePlain(a+1, 43)
	if got := m.LoadPlain(a); got != 42 {
		t.Errorf("LoadPlain(a) = %d, want 42", got)
	}
	if got := m.LoadPlain(a + 1); got != 43 {
		t.Errorf("LoadPlain(a+1) = %d, want 43", got)
	}
}

func TestStoreAdvancesClock(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	before := m.Ticket()
	m.StorePlain(a, 7)
	if after := m.Ticket(); after != before+1 {
		t.Errorf("ticket went %d -> %d, want +1", before, after)
	}
}

func TestLoadDoesNotAdvanceClock(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	before := m.Ticket()
	_ = m.LoadPlain(a)
	if after := m.Ticket(); after != before {
		t.Errorf("ticket moved on a load: %d -> %d", before, after)
	}
}

func TestCASPlain(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	m.StorePlain(a, 5)
	before := m.Ticket()
	if m.CASPlain(a, 4, 9) {
		t.Error("CAS with wrong expected value succeeded")
	}
	if m.Ticket() != before {
		t.Error("failed CAS advanced the ticket")
	}
	if !m.CASPlain(a, 5, 9) {
		t.Error("CAS with correct expected value failed")
	}
	if got := m.LoadPlain(a); got != 9 {
		t.Errorf("after CAS value = %d, want 9", got)
	}
	if m.Ticket() != before+1 {
		t.Error("successful CAS did not advance the ticket by exactly one mutation")
	}
}

func TestAddSubPlain(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	if got := m.AddPlain(a, 10); got != 10 {
		t.Errorf("AddPlain returned %d, want 10", got)
	}
	if got := m.SubPlain(a, 3); got != 7 {
		t.Errorf("SubPlain returned %d, want 7", got)
	}
	if got := m.LoadPlain(a); got != 7 {
		t.Errorf("value = %d, want 7", got)
	}
}

func TestCommitWritesPublishesAtomically(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(2)
	before := m.Ticket()
	ok := m.CommitWrites([]WriteEntry{{a, 1}, {a + 1, 2}}, func() bool { return true })
	if !ok {
		t.Fatal("CommitWrites failed with passing validation")
	}
	if m.LoadPlain(a) != 1 || m.LoadPlain(a+1) != 2 {
		t.Error("CommitWrites did not publish all entries")
	}
	if m.Ticket() != before+1 {
		t.Error("CommitWrites should advance the ticket by exactly one mutation")
	}
}

func TestCommitWritesValidationFailure(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	before := m.Ticket()
	if m.CommitWrites([]WriteEntry{{a, 1}}, func() bool { return false }) {
		t.Fatal("CommitWrites succeeded despite failing validation")
	}
	if m.LoadPlain(a) != 0 {
		t.Error("failed commit leaked a write")
	}
	if m.Ticket() != before {
		t.Error("failed commit advanced the ticket")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1024)
	for name, f := range map[string]func(){
		"load nil":           func() { m.LoadPlain(Nil) },
		"store nil":          func() { m.StorePlain(Nil, 1) },
		"load past end":      func() { m.LoadPlain(Addr(m.Size())) },
		"store past end":     func() { m.StorePlain(Addr(m.Size()+5), 1) },
		"alloc non-positive": func() { m.NewThreadCache().Alloc(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {1024, 128}}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestSnapshot(t *testing.T) {
	m := New(1024)
	c := m.NewThreadCache()
	a := c.Alloc(4)
	for i := 0; i < 4; i++ {
		m.StorePlain(a+Addr(i), uint64(i*11))
	}
	dst := make([]uint64, 4)
	m.Snapshot(a, dst)
	for i, v := range dst {
		if v != uint64(i*11) {
			t.Errorf("Snapshot[%d] = %d, want %d", i, v, i*11)
		}
	}
}

// TestConcurrentPlainStoresClockCount checks that N concurrent plain stores
// advance the ticket by exactly N (every mutation is ticketed).
func TestConcurrentPlainStoresClockCount(t *testing.T) {
	m := New(1 << 14)
	c := m.NewThreadCache()
	a := c.Alloc(64)
	const threads, per = 8, 200
	before := m.Ticket()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m.StorePlain(a+Addr(id%64), uint64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := m.Ticket() - before; got != threads*per {
		t.Errorf("ticket advanced %d, want %d", got, threads*per)
	}
}

// TestConcurrentAdds checks fetch-and-add linearizability on one word.
func TestConcurrentAdds(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	a := c.Alloc(1)
	const threads, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m.AddPlain(a, 1)
			}
		}()
	}
	wg.Wait()
	if got := m.LoadPlain(a); got != threads*per {
		t.Errorf("counter = %d, want %d", got, threads*per)
	}
}

func TestQuickStoreLoadRoundTrip(t *testing.T) {
	m := New(1 << 16)
	c := m.NewThreadCache()
	base := c.Alloc(4096)
	f := func(off uint16, v uint64) bool {
		a := base + Addr(off)%4096
		m.StorePlain(a, v)
		return m.LoadPlain(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
