package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/mem"
)

// TestRaceReadOnlyTxnsAgainstWriters hammers lock-free read-only hardware
// commits (duplicate-heavy, so they exercise both the read index and the
// seqlock validation) against transactional writers AND a plain CommitWrites
// writer, keeping w[0] + ... + w[3] == total over four words on four stripes
// (the transactions) and p + q == total on two more (the plain writer).
// Every reader load after the first is a first read of an unseen stripe, so
// each transaction extends its snapshot five times — through the ticket
// gate when no publish retired in between, through a sweep when one did —
// and the writers' two-word commits leave windows in which one stripe of a
// pair has closed and the other has not. A read-only transaction that
// commits has validated its log at a stable clock, so both invariants must
// hold over the values it returned. Run under -race this also checks the
// lock-free commit path is race-free against every writer the memory
// supports.
func TestRaceReadOnlyTxnsAgainstWriters(t *testing.T) {
	const total = 1000
	const words = 4
	m, d, c := newTestDevice(Config{})
	d.SetActiveThreads(6)
	var w [words]mem.Addr
	stripes := map[int]bool{}
	for i := range w {
		w[i] = c.Alloc(mem.LineWords)
		stripes[m.StripeOf(w[i])] = true
	}
	if len(stripes) != words {
		t.Fatalf("the %d words cover %d stripes", words, len(stripes))
	}
	p, q := c.Alloc(mem.LineWords), c.Alloc(mem.LineWords)
	m.StorePlain(w[0], total)
	m.StorePlain(p, total)

	writerOps := 1500
	if testing.Short() {
		writerOps = 300
	}
	var wg sync.WaitGroup
	var writersDone atomic.Int32

	// Transactional writers: move one unit between two of the words, each
	// writer walking the pairs in its own order.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer writersDone.Add(1)
			tx := d.NewTxn()
			for j := 0; j < writerOps; j++ {
				from, to := w[(j+i)%words], w[(j+i+1+j%(words-1))%words]
				attempt(tx, func() {
					vf := tx.Load(from)
					vt := tx.Load(to)
					if vf > 0 {
						tx.Store(from, vf-1)
						tx.Store(to, vt+1)
					} else {
						tx.Store(from, vt)
						tx.Store(to, 0)
					}
				})
			}
		}(i)
	}
	// Plain writer: atomic two-word publishes through CommitWrites, to a
	// pair of its own on two further stripes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writersDone.Add(1)
		for j := uint64(1); j <= uint64(writerOps); j++ {
			v := j % total
			m.CommitWrites([]mem.WriteEntry{{Addr: p, Value: v}, {Addr: q, Value: total - v}}, nil)
			if j%8 == 0 {
				runtime.Gosched()
			}
		}
	}()

	var bad atomic.Uint64
	var commits atomic.Uint64
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := d.NewTxn()
			// Run while any writer is still live, then make a few quiet
			// attempts: under the storm every writer commit touches two of
			// the four words, so a reader on one OS thread may conflict
			// every single time until the writers drain.
			quiet := 0
			for quiet < 10 {
				if writersDone.Load() == 3 {
					quiet++
				}
				var sum, dup, pair uint64
				ab := attempt(tx, func() {
					sum, dup = 0, 0
					pair = tx.Load(p)
					for k := range w {
						sum += tx.Load(w[(k+i)%words])
						runtime.Gosched() // let a publish land between the stripes
					}
					// Duplicate loads: answered from the read log, so the
					// commit still validates only six distinct words.
					for k := 0; k < 2*words; k++ {
						dup += tx.Load(w[k%words])
					}
					pair += tx.Load(q)
				})
				if ab == nil {
					commits.Add(1)
					if sum != total || dup != 2*total || pair != total {
						bad.Add(1)
					}
				}
				runtime.Gosched() // don't starve the writers on few OS threads
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("invariant violated %d times: committed read-only txns saw a sum != %d", bad.Load(), total)
	}
	if commits.Load() == 0 {
		t.Error("no read-only txn ever committed; the stress proved nothing")
	}
	var got uint64
	for _, a := range w {
		got += m.LoadPlain(a)
	}
	if got != total || m.LoadPlain(p)+m.LoadPlain(q) != total {
		t.Errorf("final sums = %d and %d, want %d", got, m.LoadPlain(p)+m.LoadPlain(q), total)
	}
}
