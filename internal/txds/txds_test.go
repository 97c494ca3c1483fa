package txds_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

func newThread(t *testing.T) tm.Thread {
	t.Helper()
	return lockelision.NewSerial(mem.New(1 << 20)).NewThread()
}

func TestQueueFIFO(t *testing.T) {
	th := newThread(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		q := txds.NewQueue(tx)
		if _, ok := q.Pop(tx); ok {
			t.Error("Pop on empty queue succeeded")
		}
		for i := uint64(1); i <= 10; i++ {
			q.Push(tx, i)
		}
		if q.Size(tx) != 10 {
			t.Errorf("Size = %d, want 10", q.Size(tx))
		}
		for i := uint64(1); i <= 10; i++ {
			v, ok := q.Pop(tx)
			if !ok || v != i {
				t.Errorf("Pop = %d,%v want %d", v, ok, i)
			}
		}
		if q.Size(tx) != 0 {
			t.Errorf("Size = %d after draining", q.Size(tx))
		}
		// Refill after empty (tail reset path).
		q.Push(tx, 42)
		if v, ok := q.Pop(tx); !ok || v != 42 {
			t.Errorf("Pop after refill = %d,%v", v, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueForEachAndDispose(t *testing.T) {
	m := mem.New(1 << 16)
	th := lockelision.NewSerial(m).NewThread()
	defer th.Close()
	own := m.LiveBlocks() // the system's lock word
	if err := th.Run(func(tx tm.Tx) error {
		q := txds.NewQueue(tx)
		for i := uint64(1); i <= 5; i++ {
			q.Push(tx, i)
		}
		var got []uint64
		q.ForEach(tx, func(v uint64) { got = append(got, v) })
		for i, v := range got {
			if v != uint64(i+1) {
				t.Errorf("ForEach[%d] = %d, want %d", i, v, i+1)
			}
		}
		if q.Size(tx) != 5 {
			t.Error("ForEach mutated the queue")
		}
		q.Dispose(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if m.LiveBlocks() != own {
		t.Errorf("LiveBlocks = %d after Dispose and Close, want the %d the system holds", m.LiveBlocks(), own)
	}
}

func TestStackLIFO(t *testing.T) {
	th := newThread(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		s := txds.NewStack(tx)
		if _, ok := s.Pop(tx); ok {
			t.Error("Pop on empty stack succeeded")
		}
		for i := uint64(1); i <= 10; i++ {
			s.Push(tx, i)
		}
		if s.Size(tx) != 10 {
			t.Errorf("Size = %d, want 10", s.Size(tx))
		}
		for i := uint64(10); i >= 1; i-- {
			v, ok := s.Pop(tx)
			if !ok || v != i {
				t.Errorf("Pop = %d,%v want %d", v, ok, i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapBasics(t *testing.T) {
	th := newThread(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		h := txds.NewHashMap(tx, 8)
		if _, ok := h.Get(tx, 1); ok {
			t.Error("Get on empty map succeeded")
		}
		if _, replaced := h.Put(tx, 1, 100); replaced {
			t.Error("fresh Put reported replaced")
		}
		if prev, replaced := h.Put(tx, 1, 200); !replaced || prev != 100 {
			t.Errorf("replace = %d,%v", prev, replaced)
		}
		if v, ok := h.Get(tx, 1); !ok || v != 200 {
			t.Errorf("Get = %d,%v", v, ok)
		}
		if cur, inserted := h.PutIfAbsent(tx, 1, 999); inserted || cur != 200 {
			t.Errorf("PutIfAbsent existing = %d,%v", cur, inserted)
		}
		if cur, inserted := h.PutIfAbsent(tx, 2, 300); !inserted || cur != 300 {
			t.Errorf("PutIfAbsent fresh = %d,%v", cur, inserted)
		}
		if h.Size(tx) != 2 {
			t.Errorf("Size = %d, want 2", h.Size(tx))
		}
		if v, ok := h.Delete(tx, 1); !ok || v != 200 {
			t.Errorf("Delete = %d,%v", v, ok)
		}
		if h.Contains(tx, 1) {
			t.Error("deleted key still present")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapCollisionsAndForEach(t *testing.T) {
	th := newThread(t)
	defer th.Close()
	if err := th.Run(func(tx tm.Tx) error {
		h := txds.NewHashMap(tx, 4) // force chains
		for k := uint64(0); k < 64; k++ {
			h.Put(tx, k, k*3)
		}
		seen := make(map[uint64]uint64)
		h.ForEach(tx, func(k, v uint64) { seen[k] = v })
		if len(seen) != 64 {
			t.Errorf("ForEach visited %d entries, want 64", len(seen))
		}
		for k, v := range seen {
			if v != k*3 {
				t.Errorf("entry %d = %d, want %d", k, v, k*3)
			}
		}
		// Delete middle-of-chain entries.
		for k := uint64(0); k < 64; k += 2 {
			if _, ok := h.Delete(tx, k); !ok {
				t.Errorf("Delete(%d) missed", k)
			}
		}
		if h.Size(tx) != 32 {
			t.Errorf("Size = %d, want 32", h.Size(tx))
		}
		for k := uint64(1); k < 64; k += 2 {
			if v, ok := h.Get(tx, k); !ok || v != k*3 {
				t.Errorf("survivor %d = %d,%v", k, v, ok)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashMapVsOracle(t *testing.T) {
	th := newThread(t)
	defer th.Close()
	var h txds.HashMap
	if err := th.Run(func(tx tm.Tx) error { h = txds.NewHashMap(tx, 16); return nil }); err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64]uint64)
	f := func(k uint8, v uint64, del bool) bool {
		key := uint64(k)
		ok := true
		err := th.Run(func(tx tm.Tx) error {
			if del {
				got, found := h.Delete(tx, key)
				want, wfound := oracle[key]
				ok = found == wfound && (!found || got == want)
			} else {
				prev, replaced := h.Put(tx, key, v)
				want, wfound := oracle[key]
				ok = replaced == wfound && (!replaced || prev == want)
			}
			return nil
		})
		if err != nil {
			return false
		}
		if del {
			delete(oracle, key)
		} else {
			oracle[key] = v
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentQueueConservation: pushes and pops over a hybrid TM
// conserve elements.
func TestConcurrentQueueConservation(t *testing.T) {
	m := mem.New(1 << 20)
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(4)
	sys := core.New(m, dev, tm.RetryPolicy{})
	setup := sys.NewThread()
	var q txds.Queue
	if err := setup.Run(func(tx tm.Tx) error { q = txds.NewQueue(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	const threads, per = 4, 200
	var pushed, popped sync.Map
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for j := 0; j < per; j++ {
				if rng.Intn(2) == 0 {
					v := uint64(id)<<32 | uint64(j)
					_ = th.Run(func(tx tm.Tx) error { q.Push(tx, v); return nil })
					pushed.Store(v, true)
				} else {
					var v uint64
					var ok bool
					_ = th.Run(func(tx tm.Tx) error { v, ok = q.Pop(tx); return nil })
					if ok {
						if _, dup := popped.LoadOrStore(v, true); dup {
							t.Errorf("value %d popped twice", v)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// Drain the queue; everything popped must have been pushed, exactly once.
	th := sys.NewThread()
	defer th.Close()
	for {
		var v uint64
		var ok bool
		if err := th.Run(func(tx tm.Tx) error { v, ok = q.Pop(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Errorf("value %d popped twice (drain)", v)
		}
	}
	count := 0
	popped.Range(func(k, _ any) bool {
		if _, ok := pushed.Load(k); !ok {
			t.Errorf("popped value %v never pushed", k)
		}
		count++
		return true
	})
	pushCount := 0
	pushed.Range(func(any, any) bool { pushCount++; return true })
	if count != pushCount {
		t.Errorf("popped %d values, pushed %d", count, pushCount)
	}
}
