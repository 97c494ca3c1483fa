package tm

import (
	"reflect"
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
)

// redoRecorder is a mem.Persister that keeps a copy of every record.
type redoRecorder struct{ records [][]mem.WriteEntry }

func (r *redoRecorder) Append(_ uint64, writes []mem.WriteEntry) {
	r.records = append(r.records, append([]mem.WriteEntry(nil), writes...))
}

// TestWriteLog drives the log's verbs against a three-word memory holding
// {10, 20, 30} and checks both what memory ends up holding and exactly what
// the persister was handed.
func TestWriteLog(t *testing.T) {
	const x, y, z = mem.Addr(mem.LineWords), mem.Addr(2 * mem.LineWords), mem.Addr(3 * mem.LineWords)
	w := func(a mem.Addr, v uint64) mem.WriteEntry { return mem.WriteEntry{Addr: a, Value: v} }
	cases := []struct {
		name    string
		run     func(l *WriteLog)
		mem     [3]uint64
		records [][]mem.WriteEntry
	}{
		{
			name: "rollback restores newest first",
			run: func(l *WriteLog) {
				l.StoreEager(x, 11)
				l.StoreEager(y, 21)
				l.StoreEager(x, 12) // its undo entry holds 11; x's first holds 10
				l.Rollback()
				l.Seal() // an aborted attempt owes the log nothing
			},
			mem: [3]uint64{10, 20, 30},
		},
		{
			name: "seal logs each address once with its final value",
			run: func(l *WriteLog) {
				l.StoreEager(x, 11)
				l.StoreEager(y, 21)
				l.StoreEager(x, 12)
				l.Seal()
			},
			mem:     [3]uint64{12, 21, 30},
			records: [][]mem.WriteEntry{{w(x, 12), w(y, 21)}},
		},
		{
			name: "buffered stores are invisible until published, then sealed",
			run: func(l *WriteLog) {
				l.Buffer(z, 31)
				l.Buffer(x, 11)
				l.Buffer(z, 32)
				if v, ok := l.Lookup(z); !ok || v != 32 {
					t.Errorf("Lookup(z) = %d, %v; want 32, true", v, ok)
				}
				if _, ok := l.Lookup(y); ok {
					t.Error("Lookup(y) found a store nobody buffered")
				}
				if got := l.m.LoadPlain(z); got != 30 {
					t.Errorf("z = %d before Publish, want 30", got)
				}
				l.Publish(l.Buffered())
				l.Seal()
			},
			mem:     [3]uint64{11, 20, 32},
			records: [][]mem.WriteEntry{{w(z, 32), w(x, 11)}},
		},
		{
			name: "a drained group overwriting an eager store seals the group's value",
			run: func(l *WriteLog) {
				l.StoreEager(x, 11)
				l.Publish([]mem.WriteEntry{w(x, 19), w(y, 29)})
				l.Seal()
			},
			mem:     [3]uint64{19, 29, 30},
			records: [][]mem.WriteEntry{{w(x, 19), w(y, 29)}},
		},
		{
			name: "second seal is empty",
			run: func(l *WriteLog) {
				l.StoreEager(y, 21)
				l.Seal()
				l.Seal()
			},
			mem:     [3]uint64{10, 21, 30},
			records: [][]mem.WriteEntry{{w(y, 21)}},
		},
		{
			name: "reset drops buffered stores and unsealed publishes",
			run: func(l *WriteLog) {
				l.Buffer(x, 11)
				l.Reset()
				if _, ok := l.Lookup(x); ok {
					t.Error("Lookup(x) found a store from before Reset")
				}
				l.Seal()
			},
			mem: [3]uint64{10, 20, 30},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mem.New(8 * mem.LineWords)
			m.StorePlain(x, 10)
			m.StorePlain(y, 20)
			m.StorePlain(z, 30)
			rec := &redoRecorder{}
			m.SetPersister(rec)
			tc.run(&WriteLog{m: m})
			if got := [3]uint64{m.LoadPlain(x), m.LoadPlain(y), m.LoadPlain(z)}; got != tc.mem {
				t.Errorf("memory %v, want %v", got, tc.mem)
			}
			if !reflect.DeepEqual(rec.records, tc.records) {
				t.Errorf("records %v, want %v", rec.records, tc.records)
			}
		})
	}
}

// TestWriteLogNoPersisterNoAllocs: with persistence off a warmed log's whole
// cycle allocates nothing — Publish keeps no copy and Seal assembles no
// record.
func TestWriteLogNoPersisterNoAllocs(t *testing.T) {
	m := mem.New(64 * mem.LineWords)
	l := &WriteLog{m: m}
	group := []mem.WriteEntry{{Addr: 40 * mem.LineWords, Value: 1}}
	cycle := func() {
		l.Reset()
		for i := 1; i <= 2*writeSetScan; i++ {
			l.StoreEager(mem.Addr(i*mem.LineWords), uint64(i))
			l.Buffer(mem.Addr(i*mem.LineWords), uint64(i))
		}
		l.Publish(group)
		l.Seal()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocs per cycle with no persister, want 0", n)
	}
}

// TestWriteSetIndex: past the scan threshold the set switches to its index;
// order, last-value-wins and lookups must not notice, and a Reset must not
// leave stale index entries behind for a smaller next use.
func TestWriteSetIndex(t *testing.T) {
	var s writeSet
	for round := 0; round < 2; round++ {
		n := 3 * writeSetScan
		if round == 1 {
			n = writeSetScan / 2
		}
		for i := 0; i < n; i++ {
			s.Put(mem.Addr(100+i), uint64(i))
		}
		for i := 0; i < n; i += 2 {
			s.Put(mem.Addr(100+i), uint64(1000+i))
		}
		if len(s.Entries()) != n {
			t.Fatalf("round %d: %d entries, want %d", round, len(s.Entries()), n)
		}
		for i, e := range s.Entries() {
			want := uint64(i)
			if i%2 == 0 {
				want = uint64(1000 + i)
			}
			if e.Addr != mem.Addr(100+i) || e.Value != want {
				t.Fatalf("round %d: entry %d = %+v, want {%d %d}", round, i, e, 100+i, want)
			}
			if v, ok := s.Get(e.Addr); !ok || v != want {
				t.Fatalf("round %d: Get(%d) = %d, %v", round, e.Addr, v, ok)
			}
		}
		if _, ok := s.Get(mem.Addr(100 + n)); ok {
			t.Fatalf("round %d: Get found an address never put", round)
		}
		s.Reset()
	}
}

// logDriver is a software-only protocol that stores through the write log
// and notes what the skeleton has done to it by the time each hook runs.
type logDriver struct {
	b        ThreadBase
	cell     mem.Addr
	atBegin  []int    // buffered stores left over when a try begins
	atAbort  []uint64 // what cell holds when AbortSlow runs
	restarts int
}

func (d *logDriver) BeginSlow(try int) (Tx, bool) {
	d.atBegin = append(d.atBegin, len(d.b.Log.Buffered()))
	d.b.Log.StoreEager(d.cell, uint64(try))
	d.b.Log.Buffer(d.cell+1, uint64(try))
	return fakeTx{}, false
}
func (d *logDriver) CommitSlow()          { d.b.Log.Seal() }
func (d *logDriver) AbortSlow(*htm.Abort) { d.atAbort = append(d.atAbort, d.b.M.LoadPlain(d.cell)) }
func (d *logDriver) EndSlow()             {}

// TestSkeletonOwnsTheWriteLog: every software try starts on an empty log,
// and a dead try's eager stores are already undone when the driver's
// AbortSlow releases its locks.
func TestSkeletonOwnsTheWriteLog(t *testing.T) {
	m := mem.New(1 << 12)
	d := &logDriver{b: newThreadBase(m, NewReclaimer())}
	defer d.b.Close()
	d.b.Bind(d, nil)
	d.cell = d.b.Cache.Alloc(mem.LineWords)
	m.StorePlain(d.cell, 7)
	rec := &redoRecorder{}
	m.SetPersister(rec)
	err := d.b.Run(func(Tx) error {
		if d.restarts < 2 {
			d.restarts++
			Restart()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 0}; !reflect.DeepEqual(d.atBegin, want) {
		t.Errorf("buffered stores at each begin: %v, want %v", d.atBegin, want)
	}
	if want := []uint64{7, 7}; !reflect.DeepEqual(d.atAbort, want) {
		t.Errorf("cell at each AbortSlow: %v, want %v (the pre-image)", d.atAbort, want)
	}
	if got := m.LoadPlain(d.cell); got != 3 {
		t.Errorf("cell = %d after the third try committed, want 3", got)
	}
	if want := [][]mem.WriteEntry{{{Addr: d.cell, Value: 3}}}; !reflect.DeepEqual(rec.records, want) {
		t.Errorf("records %v, want %v: one for the commit, none for the restarts", rec.records, want)
	}
}
