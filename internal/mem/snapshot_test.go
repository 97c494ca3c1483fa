package mem

import (
	"sync"
	"testing"
)

// TestSnapshotStrideTryValues: a strided snapshot must fill dst[i] from
// a + i*stride — here one word per cache line.
func TestSnapshotStrideTryValues(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	a := c.Alloc(16 * LineWords)
	for i := 0; i < 16; i++ {
		m.StorePlain(a+Addr(i*LineWords), uint64(100+i))
	}
	dst := make([]uint64, 16)
	if !m.SnapshotStrideTry(a, LineWords, dst, 3) {
		t.Fatal("quiescent strided snapshot did not succeed")
	}
	for i, v := range dst {
		if v != uint64(100+i) {
			t.Errorf("dst[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

// TestSnapshotStrideTryClampsArgs: stride and attempts below 1 degrade to
// 1, so a stride-0 call is a contiguous bounded snapshot.
func TestSnapshotStrideTryClampsArgs(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	a := c.Alloc(LineWords)
	for i := 0; i < 4; i++ {
		m.StorePlain(a+Addr(i), uint64(7+i))
	}
	dst := make([]uint64, 4)
	if !m.SnapshotStrideTry(a, 0, dst, -5) {
		t.Fatal("quiescent clamped snapshot did not succeed")
	}
	for i, v := range dst {
		if v != uint64(7+i) {
			t.Errorf("dst[%d] = %d, want %d", i, v, 7+i)
		}
	}
	if !m.SnapshotStrideTry(a, 1, nil, 1) {
		t.Fatal("empty snapshot must trivially succeed")
	}
}

// TestSnapshotStrideTryConsistent: the strided snapshot must never observe
// a cross-stripe commit half-applied — same invariant as the contiguous
// form, over a one-word-per-line footprint.
func TestSnapshotStrideTryConsistent(t *testing.T) {
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
	dst := make([]uint64, 2)
	clean := 0
	for i := 0; i < 3000; i++ {
		if !m.SnapshotStrideTry(a, LineWords, dst, 1000) {
			continue
		}
		clean++
		if dst[0]+dst[1] != total {
			t.Errorf("strided snapshot tore across stripes: %d + %d != %d", dst[0], dst[1], total)
			break
		}
	}
	close(stop)
	wg.Wait()
	if clean == 0 {
		t.Fatal("no snapshot pass came back clean in 3000 tries")
	}
}

// TestSnapshotTryBoundedFailure: when a writer dirties a touched stripe on
// every pass, a bounded budget must give up (return false) instead of
// spinning. The per-pass hook plays the writer at exactly the point a
// concurrent commit would land, so the test is deterministic even on one
// CPU.
func TestSnapshotTryBoundedFailure(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	a := c.Alloc(4 * LineWords)
	dst := make([]uint64, 4)
	s := m.StripeOf(a)
	passes := 0
	snapshotTestHook = func() {
		// An even-to-even bump looks like a complete committed write
		// landing between the copy and the recheck.
		passes++
		m.stripes[s].clock.Add(2)
	}
	defer func() { snapshotTestHook = nil }()
	if m.SnapshotStrideTry(a, 1, dst, 2) {
		t.Fatal("SnapshotStrideTry reported a clean pass while every pass was dirtied")
	}
	if passes != 2 {
		t.Fatalf("bounded SnapshotStrideTry ran %d passes, want exactly 2", passes)
	}
	// The budget is per-call, not sticky: with the writer gone the next
	// call succeeds on its first pass.
	snapshotTestHook = nil
	if !m.SnapshotStrideTry(a, 1, dst, 2) {
		t.Fatal("SnapshotStrideTry failed with the writer stopped")
	}
	// A stride across lines has the same give-up contract.
	snapshotTestHook = func() { m.stripes[s].clock.Add(2) }
	if m.SnapshotStrideTry(a, LineWords, dst, 3) {
		t.Fatal("SnapshotStrideTry reported a clean pass while every pass was dirtied")
	}
}

// TestSnapshotZeroAllocs: the snapshot loop must not heap-allocate (the
// stripe-mark array has to stay on the stack; a closure capturing it would
// drag it onto the heap per call).
func TestSnapshotZeroAllocs(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	a := c.Alloc(16 * LineWords)
	dst := make([]uint64, 16)
	avg := testing.AllocsPerRun(100, func() {
		if !m.SnapshotStrideTry(a, LineWords, dst, 3) {
			t.Fatal("quiescent snapshot failed")
		}
	})
	if avg != 0 {
		t.Fatalf("SnapshotStrideTry allocates %.1f times per call, want 0", avg)
	}
	avg = testing.AllocsPerRun(100, func() {
		m.Snapshot(a, dst[:1])
	})
	if avg != 0 {
		t.Fatalf("Snapshot allocates %.1f times per call, want 0", avg)
	}
}
