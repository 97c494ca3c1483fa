package tm

import (
	"runtime"
	"testing"

	"rhnorec/internal/mem"
)

// restarted runs f and reports whether it raised a Restart.
func restarted(f func()) (r bool) {
	defer func() {
		if v := recover(); v != nil {
			if !IsRestart(v) {
				panic(v)
			}
			r = true
		}
	}()
	f()
	return false
}

// TestReadLog drives the clock's read log against a clock word and two data
// words {10, 20}, read through LoadPlain. Each case logs a read of x at
// snapshot 0, lets a writer act, then reads y: what the second read
// returns, where it leaves the snapshot, and whether it restarts instead.
func TestReadLog(t *testing.T) {
	const clock, x, y = mem.Addr(mem.LineWords), mem.Addr(2 * mem.LineWords), mem.Addr(3 * mem.LineWords)
	cases := []struct {
		name string
		// writer acts between the two reads; it may leave work running and
		// returns what waits for that work to end.
		writer  func(m *mem.Memory) (wait func())
		restart bool
		val     uint64
		txv     uint64
	}{
		{
			name:   "nobody commits: the snapshot stays",
			writer: func(*mem.Memory) func() { return nil },
			val:    20, txv: 0,
		},
		{
			name: "writer commits elsewhere: extend, no restart",
			writer: func(m *mem.Memory) func() {
				m.StorePlain(clock, 1)
				m.StorePlain(y, 21)
				m.StorePlain(clock, 2)
				return nil
			},
			val: 21, txv: 2,
		},
		{
			name: "writer overwrites a logged value: restart",
			writer: func(m *mem.Memory) func() {
				m.StorePlain(clock, 1)
				m.StorePlain(x, 11)
				m.StorePlain(clock, 2)
				return nil
			},
			restart: true,
		},
		{
			// A log that did not wait would return under the odd clock, with
			// the snapshot odd or y's old value; whenever the writer gets to
			// run, a log that waits returns 21 at 2.
			name: "clock odd: waits for the writer to release it",
			writer: func(m *mem.Memory) func() {
				m.StorePlain(clock, 1)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < 10; i++ {
						runtime.Gosched() // let the reader find the clock odd
					}
					m.StorePlain(y, 21)
					m.StorePlain(clock, 2)
				}()
				return func() { <-done }
			},
			val: 21, txv: 2,
		},
	}
	for _, tc := range cases {
		t.Run("plain/"+tc.name, func(t *testing.T) {
			m := mem.New(8 * mem.LineWords)
			m.StorePlain(x, 10)
			m.StorePlain(y, 20)
			c := NewClock(m, clock)
			c.Snapshot()
			if got := c.LoadLogged(x); got != 10 || c.Time() != 0 {
				t.Fatalf("first LoadLogged = %d at %d, want 10 at 0", got, c.Time())
			}
			if wait := tc.writer(m); wait != nil {
				defer wait()
			}
			var got uint64
			if r := restarted(func() { got = c.LoadLogged(y) }); r != tc.restart {
				t.Fatalf("restarted = %v, want %v", r, tc.restart)
			}
			if tc.restart {
				return
			}
			if got != tc.val || c.Time() != tc.txv {
				t.Errorf("second LoadLogged = %d at %d, want %d at %d", got, c.Time(), tc.val, tc.txv)
			}
			if v := c.validate(); v != tc.txv {
				t.Errorf("validate = %d, want %d", v, tc.txv)
			}
		})
	}
}

// TestReadLogNoAllocs: a warmed log's whole cycle — log, validate, reset —
// allocates nothing.
func TestReadLogNoAllocs(t *testing.T) {
	m := mem.New(64 * mem.LineWords)
	c := NewClock(m, mem.Addr(mem.LineWords))
	cycle := func() {
		c.reset()
		c.Snapshot()
		for i := 2; i < 34; i++ {
			c.LoadLogged(mem.Addr(i * mem.LineWords))
		}
		c.validate()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocs per cycle, want 0", n)
	}
}

// TestClockLockRelease: the lock takes the clock from the snapshot to the
// snapshot with the lock bit, and the release stores it advanced by 2 iff
// the attempt published; either way the handle no longer holds it.
func TestClockLockRelease(t *testing.T) {
	const clock = mem.Addr(mem.LineWords)
	for _, tc := range []struct {
		published bool
		want      uint64
	}{{true, 6}, {false, 4}} {
		m := mem.New(4 * mem.LineWords)
		m.StorePlain(clock, 4)
		c := NewClock(m, clock)
		c.Snapshot()
		c.Lock()
		if got := m.LoadPlain(clock); got != 5 || !c.Held() || c.Time() != 5 {
			t.Fatalf("after Lock: clock %d, Held %v, Time %d; want 5, true, 5", got, c.Held(), c.Time())
		}
		c.Release(tc.published)
		if got := m.LoadPlain(clock); got != tc.want || c.Held() {
			t.Errorf("Release(%v): clock %d, Held %v; want %d, false", tc.published, got, c.Held(), tc.want)
		}
	}
}

// TestClockReleaseWithoutLockStoresNothing: an attempt that never locked —
// a reader, a writer whose Lock restarted — releases nothing, so no publish
// of any kind reaches memory.
func TestClockReleaseWithoutLockStoresNothing(t *testing.T) {
	const clock = mem.Addr(mem.LineWords)
	m := mem.New(4 * mem.LineWords)
	m.StorePlain(clock, 8)
	c := NewClock(m, clock)
	c.Snapshot()
	ticket := m.Ticket()
	c.Release(true)
	c.Release(false)
	if m.Ticket() != ticket || m.LoadPlain(clock) != 8 {
		t.Errorf("ticket %d → %d, clock %d; want no publish and 8", ticket, m.Ticket(), m.LoadPlain(clock))
	}
}

// TestClockLockOnMovedClockRestarts: a writer committed after the snapshot,
// so the first write's CAS fails; the attempt restarts without the lock and
// leaves the clock as the writer did.
func TestClockLockOnMovedClockRestarts(t *testing.T) {
	const clock = mem.Addr(mem.LineWords)
	m := mem.New(4 * mem.LineWords)
	c := NewClock(m, clock)
	c.Snapshot()
	m.StorePlain(clock, 2) // another writer's release
	if !restarted(c.Lock) {
		t.Fatal("Lock on a moved clock did not restart")
	}
	if c.Held() || m.LoadPlain(clock) != 2 {
		t.Errorf("Held %v, clock %d; want false, 2", c.Held(), m.LoadPlain(clock))
	}
	c.Release(true)
	if m.LoadPlain(clock) != 2 {
		t.Errorf("Release after a failed Lock stored the clock: %d", m.LoadPlain(clock))
	}
}

// TestZeroAllocClockViews: a warmed software attempt through either view —
// snapshot, reads, stores, commit point, release — allocates nothing.
func TestZeroAllocClockViews(t *testing.T) {
	const clock = mem.Addr(mem.LineWords)
	for _, lazy := range []bool{false, true} {
		m := mem.New(64 * mem.LineWords)
		b := newThreadBase(m, NewReclaimer())
		b.Clock = NewClock(m, clock)
		attempt := func() {
			b.Log.Reset()
			b.Clock.reset()
			b.Clock.Snapshot()
			tx := b.EagerTx()
			if lazy {
				tx = b.LazyTx()
			}
			for i := 2; i < 18; i++ {
				tx.Load(mem.Addr(i * mem.LineWords))
			}
			for i := 2; i < 6; i++ {
				tx.Store(mem.Addr(i*mem.LineWords), uint64(i))
			}
			if lazy {
				b.Clock.LockValidating()
				b.Log.Publish(b.Log.Buffered())
			}
			b.Log.Seal()
			b.Clock.Release(true)
		}
		attempt()
		if n := testing.AllocsPerRun(100, attempt); n != 0 {
			t.Errorf("lazy=%v: %v allocs per attempt, want 0", lazy, n)
		}
		// One warm attempt, and AllocsPerRun's own warm-up before its 100.
		if got, want := m.LoadPlain(clock), uint64(2*102); got != want {
			t.Errorf("lazy=%v: clock %d after 102 committed writers, want %d", lazy, got, want)
		}
		b.Close()
	}
}
