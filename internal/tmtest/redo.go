package tmtest

import (
	"errors"
	"sync"
	"testing"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// redoRecorder is a mem.Persister that keeps, in append order, the part of
// every record that falls in [lo, hi) — drivers also log their own metadata
// words (a clock bump inside a hardware commit, a fallback registration),
// which are not the data under test.
type redoRecorder struct {
	mu      sync.Mutex
	lo, hi  mem.Addr
	records [][]mem.WriteEntry
}

func (r *redoRecorder) Append(_ uint64, writes []mem.WriteEntry) {
	var rec []mem.WriteEntry
	for _, w := range writes {
		if w.Addr >= r.lo && w.Addr < r.hi {
			rec = append(rec, w)
		}
	}
	if rec != nil {
		r.mu.Lock()
		r.records = append(r.records, rec)
		r.mu.Unlock()
	}
}

// redoLogReplay: what a driver hands the durability plane must be exactly
// its committed history. A sequential pass pins the count — one record per
// committed writer, each address in it once, none for a reader, a user
// abort or the attempts a restart threw away, however many of them it took
// and whichever path (hardware, software, serial lock) finally committed. A
// concurrent pass of blind hot-word writes, counter increments and user
// aborts holds the same count — one record per committed writer — then
// replays the whole log over the initial image and requires live memory.
func redoLogReplay(t *testing.T, f Factory, opts Options) {
	const cells = 8
	m := newMem()
	sys := f(m)
	th := sys.NewThread()
	var base mem.Addr
	if err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(cells * mem.LineWords)
		for i := 0; i < cells; i++ {
			tx.Store(base+mem.Addr(i*mem.LineWords), uint64(100+i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cell := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	image := make(map[mem.Addr]uint64, cells)
	for i := 0; i < cells; i++ {
		image[cell(i)] = m.LoadPlain(cell(i))
	}
	rec := &redoRecorder{lo: base, hi: base + cells*mem.LineWords}
	m.SetPersister(rec)
	defer m.SetPersister(nil)

	// expect runs one transaction and checks how many records it added.
	expect := func(what string, want int, wantErr error, run func() error) {
		t.Helper()
		before := len(rec.records)
		if err := run(); !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", what, err, wantErr)
		}
		if got := len(rec.records) - before; got != want {
			t.Errorf("%s: %d redo records, want %d", what, got, want)
		}
	}
	expect("committed writer", 1, nil, func() error {
		return th.Run(func(tx tm.Tx) error {
			tx.Store(cell(0), 1)
			tx.Store(cell(1), 2)
			tx.Store(cell(0), 3)
			return nil
		})
	})
	if n := len(rec.records); n > 0 && len(rec.records[n-1]) != 2 {
		t.Errorf("record %v: want cells 0 and 1 once each", rec.records[n-1])
	}
	expect("read-only", 0, nil, func() error {
		return th.RunReadOnly(func(tx tm.Tx) error { _ = tx.Load(cell(0)); return nil })
	})
	expect("user abort", 0, errUser, func() error {
		return th.Run(func(tx tm.Tx) error { tx.Store(cell(2), 9); return errUser })
	})
	// Enough restarts to spend the hardware budget, fall back, spend the
	// software budget and (where the driver has one) take the serial lock.
	for _, restarts := range []int{1, 30} {
		left := restarts
		expect("restarted writer", 1, nil, func() error {
			return th.Run(func(tx tm.Tx) error {
				tx.Store(cell(3), tx.Load(cell(3))+1)
				if left > 0 {
					left--
					tm.Restart()
				}
				return nil
			})
		})
	}
	th.Close()

	before := len(rec.records)
	var wg sync.WaitGroup
	for w := 0; w < opts.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			for j := 0; j < opts.Ops; j++ {
				var err error
				switch j % 4 {
				case 0: // blind writes to the hot words
					err = th.Run(func(tx tm.Tx) error {
						tx.Store(cell(4), uint64(w<<20|j))
						tx.Store(cell(5), uint64(w<<20|j))
						return nil
					})
				case 1:
					if err = th.Run(func(tx tm.Tx) error { tx.Store(cell(6), 0); return errUser }); errors.Is(err, errUser) {
						err = nil
					}
				default:
					err = th.Run(func(tx tm.Tx) error {
						tx.Store(cell(7), tx.Load(cell(7))+1)
						tx.Store(cell(w%4), uint64(j))
						return nil
					})
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	writers := 0
	for j := 0; j < opts.Ops; j++ {
		if j%4 != 1 { // every op but the user abort commits one writer
			writers += opts.Threads
		}
	}
	if got := len(rec.records) - before; got != writers && !t.Failed() {
		t.Errorf("concurrent pass: %d redo records for %d committed writers", got, writers)
	}

	for _, r := range rec.records {
		for _, w := range r {
			image[w.Addr] = w.Value
		}
	}
	for i := 0; i < cells; i++ {
		if live := m.LoadPlain(cell(i)); image[cell(i)] != live {
			t.Errorf("cell %d: replayed log gives %d, live memory holds %d", i, image[cell(i)], live)
		}
	}
}
