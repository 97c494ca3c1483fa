package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRaceMultiStripeCommitOrdering is the striping lock-order stress:
// concurrent commits whose write sets span overlapping multi-stripe
// subsets, interleaved with plain mutators on the same stripes. Every
// commit writes one common tuple of words — one word per stripe — with a
// single writer-unique value, so any consistent snapshot must observe all
// tuple words equal; a torn write set or a misordered lock acquisition
// would surface as a mixed tuple (or as a deadlock, which the test timeout
// catches). Snapshot supplies the consistent read side.
func TestRaceMultiStripeCommitOrdering(t *testing.T) {
	const tupleLines = 6 // tuple spans 6 distinct stripes
	m := New(1 << 14)
	c := m.NewThreadCache()
	base := c.Alloc(tupleLines * LineWords)
	tuple := make([]Addr, tupleLines)
	for i := range tuple {
		tuple[i] = base + Addr(i*LineWords)
	}
	for i := 1; i < tupleLines; i++ {
		if m.StripeOf(tuple[i]) == m.StripeOf(tuple[0]) {
			t.Fatalf("tuple words 0 and %d share stripe %d; the test needs distinct stripes", i, m.StripeOf(tuple[0]))
		}
	}
	// Seed the tuple so early snapshots see a legal state.
	m.CommitWrites([]WriteEntry{{tuple[0], 0}, {tuple[1], 0}, {tuple[2], 0}, {tuple[3], 0}, {tuple[4], 0}, {tuple[5], 0}}, nil)

	writerOps := 1500
	if testing.Short() {
		writerOps = 250
	}
	const writers = 4
	var wg sync.WaitGroup
	var done atomic.Int32
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer done.Add(1)
			writes := make([]WriteEntry, tupleLines)
			for i := uint64(1); i <= uint64(writerOps); i++ {
				v := uint64(id)<<32 | i
				// Vary the entry order so lock acquisition order cannot
				// accidentally match write-set order: correctness must come
				// from the canonical stripe ordering inside CommitWrites.
				for j := range writes {
					writes[j] = WriteEntry{tuple[(j+id)%tupleLines], v}
				}
				m.CommitWrites(writes, nil)
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	// Plain mutators keep single-stripe traffic (stores, CASes, adds)
	// colliding with the multi-stripe commits on the same stripes, via the
	// second word of each tuple line (never read by the checkers).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := uint64(0); i < uint64(writerOps); i++ {
				a := tuple[i%tupleLines] + 1
				switch i % 3 {
				case 0:
					m.StorePlain(a, i)
				case 1:
					m.CASPlain(a, m.LoadPlain(a), i)
				case 2:
					m.AddPlain(a, 1)
				}
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	var mixed atomic.Uint64
	var reads atomic.Uint64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]uint64, tupleLines*LineWords)
			quiet := 0
			for quiet < 10 {
				if done.Load() == writers {
					quiet++
				}
				m.Snapshot(base, dst)
				reads.Add(1)
				v0 := dst[0]
				for i := 1; i < tupleLines; i++ {
					if dst[i*LineWords] != v0 {
						mixed.Add(1)
						break
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if mixed.Load() != 0 {
		t.Errorf("torn write-set visibility: %d of %d snapshots saw a mixed tuple", mixed.Load(), reads.Load())
	}
}

// TestLoadPlainWaitsOutOpenCommit pins, with no concurrent writer, that a
// commit is one step to LoadPlain: the test takes a stripe by hand, opening
// its window as CommitWrites does, and stores the first word but not yet the
// second. A LoadPlain of the first word must not return while the window is
// open, and once it closes must return the committed value. (A bare atomic
// load returns the new first word at once, beside the old second one.)
func TestLoadPlainWaitsOutOpenCommit(t *testing.T) {
	m := New(1 << 10)
	a := m.NewThreadCache().Alloc(2) // one line, so one stripe
	m.StorePlain(a, 1)
	m.StorePlain(a+1, 1)
	s := uint64(1) << m.StripeOf(a)
	m.take(s)
	atomic.StoreUint64(&m.words[a], 2)

	got := make(chan [2]uint64, 1)
	go func() { got <- [2]uint64{m.LoadPlain(a), m.LoadPlain(a + 1)} }()
	for i := 0; i < 20; i++ {
		select {
		case v := <-got:
			t.Fatalf("LoadPlain returned %v inside an open commit window", v)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	atomic.StoreUint64(&m.words[a+1], 2)
	m.endMutate(s)
	if v := <-got; v != [2]uint64{2, 2} {
		t.Fatalf("LoadPlain after the window closed = %v, want [2 2]", v)
	}
}

// TestRaceLoadPlainSeesWholeCommits: a value LoadPlain returns from a
// multi-stripe commit implies every other word of that commit is already
// in memory — the property the TM drivers' software reads lean on when they
// load data first and check a clock or version word after. The writer
// publishes (data, clock) with data first in the buffer, the order a
// hardware fast path produces; a reader that sees data == k must then find
// clock >= k. (With a bare load for the data the pair can be torn: data
// from commit k, clock still k-1.)
func TestRaceLoadPlainSeesWholeCommits(t *testing.T) {
	m := New(1 << 12)
	c := m.NewThreadCache()
	data := c.Alloc(LineWords)
	clock := c.Alloc(LineWords)
	if m.StripeOf(data) == m.StripeOf(clock) {
		t.Fatalf("data and clock landed on the same stripe %d; the test needs a cross-stripe pair", m.StripeOf(data))
	}
	commits := uint64(20000)
	if testing.Short() {
		commits = 2000
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for k := uint64(1); k <= commits; k++ {
			m.CommitWrites([]WriteEntry{{Addr: data, Value: k}, {Addr: clock, Value: k}}, nil)
		}
	}()
	for !done.Load() {
		d := m.LoadPlain(data)
		if cl := m.LoadPlain(clock); cl < d {
			t.Fatalf("read data of commit %d while the clock still said %d", d, cl)
		}
	}
	wg.Wait()
}

// TestRaceTicketRetiresInsideWindow pins property 3 of the package doc: a
// publish retires its ticket after its last store and before its first
// window closes, so a seqlock reader that finds a published value under an
// even stripe clock finds the ticket advanced too. One writer makes the
// memory's n-th publish carry the value n — to lo alone (store, CAS, add in
// turn) or to lo and hi together, on two stripes, lo's window closing
// first — so a reader that sees v in lo between two equal even clock
// samples must then read a ticket of at least v. (With the ticket retired
// after the windows, as it once was, the reader can run in the gap: value v
// certified, ticket still v-1 — which is what package htm's snapshot gate
// could not survive.)
func TestRaceTicketRetiresInsideWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := New(1 << 12)
	c := m.NewThreadCache()
	lo := c.Alloc(2 * LineWords)
	hi := lo + LineWords
	if m.StripeOf(lo) > m.StripeOf(hi) {
		lo, hi = hi, lo // windows close in ascending stripe order
	}
	publishes := uint64(200000)
	if testing.Short() {
		publishes = 20000
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint64(1); n <= publishes; n++ {
			switch n % 4 {
			case 0:
				m.StorePlain(lo, n)
			case 1:
				if !m.CASPlain(lo, n-1, n) {
					t.Errorf("CAS %d -> %d failed: lo holds %d", n-1, n, m.LoadPlain(lo))
					return
				}
			case 2:
				m.AddPlain(lo, 1)
			default:
				m.CommitWrites([]WriteEntry{{Addr: lo, Value: n}, {Addr: hi, Value: n}}, nil)
			}
		}
	}()
	var late atomic.Uint64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.StripeOf(lo)
			for {
				c0 := m.StripeClock(s)
				v := m.LoadPlain(lo)
				if c0&1 != 0 || m.StripeClock(s) != c0 {
					continue
				}
				if ticket := m.Ticket(); ticket < v {
					late.Add(1)
					t.Errorf("value %d certified at clock %d with the ticket still at %d", v, c0, ticket)
					return
				}
				if v == publishes {
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Ticket() != publishes || late.Load() != 0 {
		t.Errorf("ticket = %d after %d publishes, %d late readings", m.Ticket(), publishes, late.Load())
	}
}
