package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rhnorec/internal/mem"
)

// wordStore is a recovery target: a plain map standing in for the arena.
type wordStore map[mem.Addr]uint64

func (w wordStore) apply(a mem.Addr, v uint64) { w[a] = v }
func (w wordStore) read(a mem.Addr) uint64     { return w[a] }

func openStore(t *testing.T, opts Options, w wordStore) (*Log, RecoveryStats) {
	t.Helper()
	l, stats, err := Open(opts, w.apply, w.read)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, stats
}

func TestRoundTrip(t *testing.T) {
	b := NewMemBackend()
	opts := Options{Backend: b, Lo: 8, Hi: 1024}
	w := wordStore{}
	l, stats := openStore(t, opts, w)
	if stats.Seq != 0 || stats.Commits != 0 {
		t.Fatalf("fresh log recovered stats %+v", stats)
	}
	l.Append(1, []mem.WriteEntry{{Addr: 8, Value: 100}, {Addr: 200, Value: 7}})
	l.Append(2, []mem.WriteEntry{{Addr: 8, Value: 101}})
	if got := l.Appended(); got != 2 {
		t.Fatalf("Appended = %d, want 2", got)
	}
	if err := l.WaitDurable(2); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	if got := l.Durable(); got != 2 {
		t.Fatalf("Durable = %d, want 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := wordStore{}
	l2, stats2 := openStore(t, opts, w2)
	defer l2.Close()
	if stats2.Seq != 2 || stats2.Commits != 2 {
		t.Fatalf("recovered stats %+v, want Seq=2 Commits=2", stats2)
	}
	if w2[8] != 101 || w2[200] != 7 {
		t.Fatalf("recovered state %v", w2)
	}
	// Appends continue above the recovered frontier.
	l2.Append(9, []mem.WriteEntry{{Addr: 16, Value: 5}})
	if got := l2.Appended(); got != 3 {
		t.Fatalf("post-recovery Appended = %d, want 3", got)
	}
}

func TestRangeFilter(t *testing.T) {
	b := NewMemBackend()
	w := wordStore{}
	l, _ := openStore(t, Options{Backend: b, Lo: 64, Hi: 128}, w)
	defer l.Close()
	// Entirely out of range: no record, no sequence.
	l.Append(1, []mem.WriteEntry{{Addr: 8, Value: 1}, {Addr: 130, Value: 2}})
	if got := l.Appended(); got != 0 {
		t.Fatalf("out-of-range append assigned seq %d", got)
	}
	// Mixed: only the in-range entry is logged.
	l.Append(2, []mem.WriteEntry{{Addr: 8, Value: 1}, {Addr: 64, Value: 42}})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	c := l.CountersSnapshot()
	if c.Appends != 1 || c.Records != 1 {
		t.Fatalf("counters %+v, want Appends=1 Records=1", c)
	}
	w2 := wordStore{}
	l2, stats := openStore(t, Options{Backend: b, Lo: 64, Hi: 128}, w2)
	defer l2.Close()
	if stats.Commits != 1 || w2[64] != 42 {
		t.Fatalf("recovered %+v state %v", stats, w2)
	}
	if _, ok := w2[8]; ok {
		t.Fatalf("out-of-range address leaked into the log")
	}
}

func TestSyncEveryAppend(t *testing.T) {
	b := NewMemBackend()
	w := wordStore{}
	l, _ := openStore(t, Options{Backend: b, Lo: 8, Hi: 64, SyncEveryAppend: true}, w)
	defer l.Close()
	l.Append(1, []mem.WriteEntry{{Addr: 8, Value: 1}})
	l.Append(2, []mem.WriteEntry{{Addr: 9, Value: 2}})
	if got := l.Durable(); got != 2 {
		t.Fatalf("Durable = %d, want 2 without any WaitDurable", got)
	}
	c := l.CountersSnapshot()
	if c.FsyncGroups != 2 {
		t.Fatalf("FsyncGroups = %d, want one per append", c.FsyncGroups)
	}
}

// TestCountersSnapshotConsistent: a scrape taken under traffic must satisfy
// the invariants bench.ValidateDump holds an rhserve.v1 dump to. A frontier
// read apart from the other moves past it.
func TestCountersSnapshotConsistent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const writers, commits = 4, 5000
	l, _ := openStore(t, Options{Backend: NewMemBackend(), Lo: 8, Hi: 1 << 16}, wordStore{})
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				a := mem.Addr(8 + (w*commits+i)%1024*mem.LineWords)
				l.Append(uint64(i), []mem.WriteEntry{{Addr: a, Value: uint64(i)}})
				if err := l.WaitDurable(l.Appended()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	bad, scrapes := 0, 0
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false // one last scrape of the settled ledger
		default:
		}
		c := l.CountersSnapshot()
		if c.Records < c.Appends || c.Fsyncs < c.FsyncGroups || c.Durable > c.Appended {
			if bad == 0 {
				t.Errorf("inconsistent snapshot %+v", c)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d snapshots broke an invariant", bad, scrapes)
	}
	if c := l.CountersSnapshot(); c.Appends != writers*commits || c.Durable != c.Appended {
		t.Errorf("settled ledger %+v, want %d appends all durable", c, writers*commits)
	}
}

// fault is one way a log file's I/O fails.
type fault uint8

const (
	// faultSync: Sync returns the error; the appended bytes stay in the file.
	faultSync fault = iota
	// faultShortWrite: Append writes the first shortWriteBytes of p, then
	// returns the error.
	faultShortWrite
	// faultENOSPC: Append writes nothing and returns syscall.ENOSPC.
	faultENOSPC
)

// shortWriteBytes is less than the smallest record (56 bytes, one pair), so
// a short write always leaves a partial record at the file's end.
const shortWriteBytes = 20

// faultBackend is a MemBackend whose files fail one Append or Sync, as kind
// says: the first such call after armed is set.
type faultBackend struct {
	*MemBackend
	kind  fault
	err   error
	armed atomic.Bool
}

func (b *faultBackend) OpenAppend(name string) (File, error) {
	f, err := b.MemBackend.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return faultFile{File: f, b: b}, nil
}

type faultFile struct {
	File
	b *faultBackend
}

func (f faultFile) Append(p []byte) error {
	if f.b.kind != faultSync && f.b.armed.CompareAndSwap(true, false) {
		if f.b.kind == faultENOSPC {
			return f.b.err
		}
		if err := f.File.Append(p[:min(len(p), shortWriteBytes)]); err != nil {
			return err
		}
		return f.b.err
	}
	return f.File.Append(p)
}

func (f faultFile) Sync() error {
	if f.b.kind == faultSync && f.b.armed.CompareAndSwap(true, false) {
		return f.b.err
	}
	return f.File.Sync()
}

// TestStickyError: one failed write or fsync is never retried and then
// trusted. Every later WaitDurable, Sync, Err and Close returns that error,
// concurrent waiters all get it, and the durable frontier stays below the
// failed pass's target even though every later write and fsync would
// succeed. Recovering what the failure left in the file replays whole
// commits only: exactly the durable prefix when the failed write put no
// whole record down, with a short write's partial record a torn tail.
func TestStickyError(t *testing.T) {
	faults := []struct {
		name string
		kind fault
		err  error
		// exact: recovery must reach exactly the durable frontier. A failed
		// fsync leaves whole records after it, which may replay.
		exact bool
		torn  int
	}{
		{"fsync", faultSync, errors.New("injected fsync failure"), false, 0},
		{"short-write", faultShortWrite, errors.New("injected short write"), true, 1},
		{"enospc", faultENOSPC, syscall.ENOSPC, true, 0},
	}
	for _, every := range []bool{false, true} {
		t.Run(fmt.Sprintf("SyncEveryAppend=%v", every), func(t *testing.T) {
			for _, c := range faults {
				t.Run(c.name, func(t *testing.T) {
					b := &faultBackend{MemBackend: NewMemBackend(), kind: c.kind, err: c.err}
					l, _ := openStore(t, Options{Backend: b, Lo: 8, Hi: 1024, SyncEveryAppend: every}, wordStore{})
					var commits [][]mem.WriteEntry
					put := func(v uint64) {
						writes := []mem.WriteEntry{{Addr: mem.Addr(8 + v%64*mem.LineWords), Value: v}}
						l.Append(v, writes)
						commits = append(commits, writes)
					}
					put(1)
					if err := l.WaitDurable(1); err != nil {
						t.Fatal(err)
					}
					const good = 1 // the durable frontier before the failure
					b.armed.Store(true)
					for v := uint64(2); v <= 5; v++ {
						put(v)
					}
					target := l.Appended()

					const waiters = 4
					errs := make(chan error, waiters)
					start := make(chan struct{})
					for w := 0; w < waiters; w++ {
						go func() {
							<-start
							errs <- l.WaitDurable(target)
						}()
					}
					close(start)
					for w := 0; w < waiters; w++ {
						if err := <-errs; !errors.Is(err, c.err) {
							t.Errorf("concurrent waiter got %v, want %v", err, c.err)
						}
					}
					if b.armed.Load() {
						t.Fatal("the armed fault never fired")
					}

					for v := uint64(6); v <= 8; v++ {
						put(v)
						if err := l.WaitDurable(l.Appended()); !errors.Is(err, c.err) {
							t.Errorf("WaitDurable after the failure = %v", err)
						}
						if err := l.WaitDurable(good); !errors.Is(err, c.err) {
							t.Errorf("WaitDurable on an already durable seq = %v", err)
						}
						if err := l.Sync(); !errors.Is(err, c.err) {
							t.Errorf("Sync after the failure = %v", err)
						}
						if err := l.Err(); !errors.Is(err, c.err) {
							t.Errorf("Err after the failure = %v", err)
						}
						if d := l.Durable(); d != good {
							t.Fatalf("Durable = %d after a failed pass to %d, want it held at %d", d, target, good)
						}
					}
					if err := l.Close(); !errors.Is(err, c.err) {
						t.Errorf("Close = %v, want %v", err, c.err)
					}
					if d := l.Durable(); d != good {
						t.Errorf("Close moved Durable to %d, want %d", d, good)
					}
					if cs := l.CountersSnapshot(); cs.Durable != good || cs.FsyncGroups != 1 {
						t.Errorf("counters %+v, want one good fsync group and Durable %d", cs, good)
					}

					// Recover every byte the file holds, as a reboot without a
					// power loss would.
					w := wordStore{}
					l2, stats := openStore(t, Options{Backend: b.MemBackend, Lo: 8, Hi: 1024}, w)
					defer l2.Close()
					if stats.Seq < good || c.exact && stats.Seq != good {
						t.Fatalf("recovered to seq %d with the durable frontier at %d (exact: %v)", stats.Seq, good, c.exact)
					}
					if stats.TornTails != c.torn {
						t.Errorf("TornTails = %d, want %d", stats.TornTails, c.torn)
					}
					want := wordStore{}
					for _, writes := range commits[:stats.Seq] {
						for _, e := range writes {
							want[e.Addr] = e.Value
						}
					}
					for a := mem.Addr(8); a < 1024; a++ {
						if w[a] != want[a] {
							t.Fatalf("recovered word %d = %d, want %d: the image is not commits 1..%d", a, w[a], want[a], stats.Seq)
						}
					}
				})
			}
		})
	}
}

// slowBackend is a MemBackend whose files' next Sync, once armed is set,
// parks until release is closed: a disk whose fsync takes as long as the
// test likes. parked receives once when that Sync starts.
type slowBackend struct {
	*MemBackend
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (b *slowBackend) OpenAppend(name string) (File, error) {
	f, err := b.MemBackend.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, b: b}, nil
}

type slowFile struct {
	File
	b *slowBackend
}

func (f slowFile) Sync() error {
	if f.b.armed.CompareAndSwap(true, false) {
		f.b.parked <- struct{}{}
		<-f.b.release
	}
	return f.File.Sync()
}

// TestSlowFsync: a slow fsync stalls only what must wait for it. While one
// group pass is parked in Sync, Appended, Durable and Err answer, and Durable
// holds at the frontier before the pass. In group mode an append from another
// goroutine returns, a second WaitDurable on the newest sequence returns only
// after the release, and two fsync groups cover both waiters. With
// SyncEveryAppend, the second append itself waits out the in-flight fsync.
func TestSlowFsync(t *testing.T) {
	const timeout = 10 * time.Second
	for _, every := range []bool{false, true} {
		t.Run(fmt.Sprintf("SyncEveryAppend=%v", every), func(t *testing.T) {
			b := &slowBackend{MemBackend: NewMemBackend(), parked: make(chan struct{}), release: make(chan struct{})}
			l, _ := openStore(t, Options{Backend: b, Lo: 8, Hi: 1024, SyncEveryAppend: every}, wordStore{})
			defer l.Close()
			var (
				released atomic.Bool
				once     sync.Once
			)
			release := func() {
				once.Do(func() {
					released.Store(true)
					close(b.release)
				})
			}
			defer release() // before Close, which waits out a parked pass
			put := func(v uint64) {
				l.Append(v, []mem.WriteEntry{{Addr: mem.Addr(8 + v*mem.LineWords), Value: v}})
			}
			// run starts f on its own goroutine. Its result reports f's error
			// and whether the release had happened by the time f returned.
			type result struct {
				err          error
				afterRelease bool
			}
			run := func(f func() error) <-chan result {
				ch := make(chan result, 1)
				go func() {
					err := f()
					ch <- result{err, released.Load()}
				}()
				return ch
			}
			await := func(what string, ch <-chan result) result {
				t.Helper()
				select {
				case r := <-ch:
					return r
				case <-time.After(timeout):
					t.Fatalf("%s did not return within %v", what, timeout)
					return result{}
				}
			}
			// answers runs f on another goroutine and fails unless it returns
			// while the fsync is parked.
			answers := func(what string, f func()) {
				t.Helper()
				await(what, run(func() error { f(); return nil }))
			}

			b.armed.Store(true)
			first := run(func() error {
				put(1) // parks here with SyncEveryAppend
				return l.WaitDurable(1)
			})
			select {
			case <-b.parked:
			case <-time.After(timeout):
				t.Fatal("the first fsync never started")
			}
			answers("Appended, Durable and Err", func() {
				if a, d, err := l.Appended(), l.Durable(), l.Err(); a != 1 || d != 0 || err != nil {
					t.Errorf("during the parked fsync: Appended %d, Durable %d, Err %v; want 1, 0, nil", a, d, err)
				}
			})

			var second <-chan result
			if every {
				second = run(func() error { put(2); return nil })
			} else {
				answers("an append during the parked fsync", func() { put(2) })
				if a := l.Appended(); a != 2 {
					t.Fatalf("Appended %d after the second append, want 2", a)
				}
				second = run(func() error { return l.WaitDurable(2) })
			}
			time.Sleep(20 * time.Millisecond) // let the second caller block
			select {
			case <-second:
				t.Fatal("the second caller returned while the fsync was parked")
			default:
			}
			if d := l.Durable(); d != 0 {
				t.Fatalf("Durable %d while the first fsync is parked, want 0", d)
			}

			release()
			for i, ch := range []<-chan result{first, second} {
				r := await(fmt.Sprintf("caller %d", i+1), ch)
				if r.err != nil {
					t.Errorf("caller %d: %v", i+1, r.err)
				}
				if !r.afterRelease {
					t.Errorf("caller %d returned before the release", i+1)
				}
			}
			c := l.CountersSnapshot()
			if c.Durable != 2 || c.FsyncGroups != 2 || c.Fsyncs != 2 {
				t.Fatalf("counters %+v, want Durable 2 and 2 fsync groups", c)
			}
		})
	}
}

// TestGroupFsyncBatches: one group-fsync pass is one write and one fsync of
// the one log file, however many lines its commits touched, and every commit
// is one record.
func TestGroupFsyncBatches(t *testing.T) {
	b := NewMemBackend()
	w := wordStore{}
	l, _ := openStore(t, Options{Backend: b, Lo: 8, Hi: 8 + 64*mem.LineWords}, w)
	defer l.Close()
	line := func(i int) mem.Addr { return mem.Addr(8 + i*mem.LineWords) }
	for i := 0; i < 10; i++ {
		l.Append(uint64(i), []mem.WriteEntry{{Addr: line(i), Value: uint64(i)}})
	}
	// One commit over four lines of its own.
	l.Append(10, []mem.WriteEntry{
		{Addr: line(20), Value: 1}, {Addr: line(21), Value: 2},
		{Addr: line(22), Value: 3}, {Addr: line(23), Value: 4},
	})
	if err := l.WaitDurable(11); err != nil {
		t.Fatal(err)
	}
	c := l.CountersSnapshot()
	if c.FsyncGroups != 1 || c.Fsyncs != 1 {
		t.Fatalf("11 appends over 14 lines flushed with %d groups / %d fsyncs, want 1/1", c.FsyncGroups, c.Fsyncs)
	}
	if c.Appends != 11 || c.Records != c.Appends {
		t.Fatalf("counters %+v, want 11 appends and one record each", c)
	}
	names, err := b.List(segPrefix)
	if err != nil {
		t.Fatal(err)
	}
	var written []string
	for _, n := range names {
		if data, err := b.ReadFile(n); err != nil {
			t.Fatal(err)
		} else if len(data) > 0 {
			written = append(written, n)
		}
	}
	if len(written) != 1 || written[0] != logName {
		t.Fatalf("non-empty log files %v of %v, want only %s", written, names, logName)
	}
}

// TestCheckpointCycle: recovery rewrites the checkpoint and truncates the
// segments, so back-to-back restarts converge instead of re-replaying.
func TestCheckpointCycle(t *testing.T) {
	b := NewMemBackend()
	opts := Options{Backend: b, Lo: 8, Hi: 64}
	w := wordStore{}
	l, _ := openStore(t, opts, w)
	l.Append(1, []mem.WriteEntry{{Addr: 8, Value: 11}, {Addr: 40, Value: 12}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		w2 := wordStore{}
		l2, stats := openStore(t, opts, w2)
		if stats.Seq != 1 {
			t.Fatalf("cycle %d: Seq = %d, want 1", cycle, stats.Seq)
		}
		if cycle > 0 && stats.Records != 0 {
			t.Fatalf("cycle %d replayed %d records; the checkpoint should have absorbed them", cycle, stats.Records)
		}
		if w2[8] != 11 || w2[40] != 12 {
			t.Fatalf("cycle %d state %v", cycle, w2)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// fileState recovers the on-disk dir into a fresh store and returns it with
// the stats.
func fileState(t *testing.T, dir string, lo, hi mem.Addr) (wordStore, RecoveryStats) {
	t.Helper()
	w := wordStore{}
	l, stats, err := Open(Options{Dir: dir, Lo: lo, Hi: hi}, w.apply, w.read)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return w, stats
}

// TestTornTailEveryOffset truncates and bit-flips the last record of a
// segment at every byte offset and asserts recovery stops at the previous
// consistent commit instead of replaying garbage.
func TestTornTailEveryOffset(t *testing.T) {
	const (
		lo, hi  = mem.Addr(8), mem.Addr(64)
		commits = 3
	)
	master := t.TempDir()
	{
		w := wordStore{}
		l, _, err := Open(Options{Dir: master, Lo: lo, Hi: hi}, w.apply, w.read)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= commits; i++ {
			l.Append(uint64(i), []mem.WriteEntry{
				{Addr: 8, Value: uint64(100 + i)},
				{Addr: 9, Value: uint64(200 + i)},
			})
		}
		if err := l.WaitDurable(uint64(commits)); err != nil {
			t.Fatal(err)
		}
		// Flush to disk but skip Close's truncation-free shutdown: copy the
		// raw files while the log is still "live".
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(master, logName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(master, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%commits != 0 {
		t.Fatalf("segment is %d bytes for %d equal records", len(data), commits)
	}
	recLen := len(data) / commits
	lastStart := len(data) - recLen

	check := func(t *testing.T, corrupted []byte, wantSeq uint64, wantTorn int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		w, stats := fileState(t, dir, lo, hi)
		if stats.Seq != wantSeq {
			t.Fatalf("recovered to seq %d, want %d (stats %+v)", stats.Seq, wantSeq, stats)
		}
		if stats.TornTails != wantTorn {
			t.Fatalf("TornTails = %d, want %d", stats.TornTails, wantTorn)
		}
		if want := uint64(100 + wantSeq); w[8] != want {
			t.Fatalf("w[8] = %d, want %d (previous consistent commit)", w[8], want)
		}
		if want := uint64(200 + wantSeq); w[9] != want {
			t.Fatalf("w[9] = %d, want %d", w[9], want)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		for cut := lastStart; cut < len(data); cut++ {
			torn := 0
			if cut > lastStart {
				torn = 1 // zero-length tails are clean, partial ones are torn
			}
			check(t, append([]byte(nil), data[:cut]...), commits-1, torn)
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for off := lastStart; off < len(data); off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x40
			check(t, mut, commits-1, 1)
		}
	})
	t.Run("intact", func(t *testing.T) {
		check(t, data, commits, 0)
	})
}

// TestIncompleteMultiSegmentCommit: in a directory a two-file log wrote, a
// commit whose records reached only some of its files must not replay at
// all, and everything after it is cut. The next boot appends to seg-000.log
// only.
func TestIncompleteMultiSegmentCommit(t *testing.T) {
	const lo, hi = mem.Addr(8), mem.Addr(1024)
	b := NewMemBackend()
	p := newLegacyLog(t, b, 2)
	// Addresses 8 and 8+LineWords land in different files.
	a0, a1 := mem.Addr(8), mem.Addr(8+mem.LineWords)
	p.append(1, []mem.WriteEntry{{Addr: a0, Value: 1}, {Addr: a1, Value: 2}})
	p.append(2, []mem.WriteEntry{{Addr: a0, Value: 3}, {Addr: a1, Value: 4}})
	p.append(3, []mem.WriteEntry{{Addr: a1, Value: 5}})
	p.sync(t)
	// Strand commit 2: a0's file holds exactly commit 1's and commit 2's
	// records (equal-sized); truncating it in half removes commit 2's record
	// on a clean boundary while its sibling record survives in the other.
	name := segName(p.fileOf(a0))
	data, err := b.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAtomic(name, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	w, stats := bootAndAppend(t, b, lo, hi, mem.WriteEntry{Addr: a1, Value: 6})
	if stats.Seq != 1 {
		t.Fatalf("recovered to seq %d, want 1 (commit 2 incomplete)", stats.Seq)
	}
	if stats.Dropped != 2 {
		// Commit 2's surviving record + commit 3's record lie beyond the cut.
		t.Fatalf("Dropped = %d, want 2", stats.Dropped)
	}
	if w[a0] != 1 || w[a1] != 2 {
		t.Fatalf("state %v, want commit 1 only", w)
	}
}

// TestCrashSnapshotDeterministic: the mem backend's crash image is a pure
// function of the append/sync history.
func TestCrashSnapshotDeterministic(t *testing.T) {
	build := func() *MemBackend {
		b := NewMemBackend()
		w := wordStore{}
		l, _, err := Open(Options{Backend: b, Lo: 8, Hi: 64}, w.apply, w.read)
		if err != nil {
			t.Fatal(err)
		}
		l.Append(1, []mem.WriteEntry{{Addr: 8, Value: 1}, {Addr: 16, Value: 2}})
		if err := l.WaitDurable(1); err != nil {
			t.Fatal(err)
		}
		l.Append(2, []mem.WriteEntry{{Addr: 8, Value: 3}})
		return b
	}
	s1, s2 := build().CrashSnapshot(), build().CrashSnapshot()
	names, err := s1.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		d1, err1 := s1.ReadFile(n)
		d2, err2 := s2.ReadFile(n)
		if err1 != nil || err2 != nil {
			t.Fatalf("read %s: %v %v", n, err1, err2)
		}
		if string(d1) != string(d2) {
			t.Fatalf("crash snapshots diverge on %s", n)
		}
	}
	// The torn tail must recover to the synced frontier.
	w := wordStore{}
	l, stats, err := Open(Options{Backend: s1, Lo: 8, Hi: 64}, w.apply, w.read)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.Seq != 1 || w[8] != 1 || w[16] != 2 {
		t.Fatalf("crash recovery reached seq %d state %v, want synced commit 1", stats.Seq, w)
	}
}
