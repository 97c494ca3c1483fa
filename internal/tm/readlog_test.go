package tm

import (
	"runtime"
	"testing"

	"rhnorec/internal/mem"
)

// TestReadLog drives the log against a clock word and two data words {10,
// 20}, read through LoadPlain. Each case logs a read of x at snapshot 0,
// lets a writer act, then reads y: what the second read returns, where it
// leaves the snapshot, and whether it restarts instead.
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
			l := NewReadLog(m, clock)
			txv := uint64(0)
			if got := l.Load(x, &txv); got != 10 || txv != 0 {
				t.Fatalf("first Load = %d at %d, want 10 at 0", got, txv)
			}
			if wait := tc.writer(m); wait != nil {
				defer wait()
			}
			restarted := false
			var got uint64
			func() {
				defer func() {
					if r := recover(); r != nil {
						if !IsRestart(r) {
							panic(r)
						}
						restarted = true
					}
				}()
				got = l.Load(y, &txv)
			}()
			if restarted != tc.restart {
				t.Fatalf("restarted = %v, want %v", restarted, tc.restart)
			}
			if tc.restart {
				return
			}
			if got != tc.val || txv != tc.txv {
				t.Errorf("second Load = %d at %d, want %d at %d", got, txv, tc.val, tc.txv)
			}
			if v := l.Validate(); v != tc.txv {
				t.Errorf("Validate = %d, want %d", v, tc.txv)
			}
		})
	}
}

// TestReadLogNoAllocs: a warmed log's whole cycle — log, validate, reset —
// allocates nothing.
func TestReadLogNoAllocs(t *testing.T) {
	m := mem.New(64 * mem.LineWords)
	const clock = mem.Addr(mem.LineWords)
	l := NewReadLog(m, clock)
	cycle := func() {
		l.Reset()
		txv := uint64(0)
		for i := 2; i < 34; i++ {
			l.Load(mem.Addr(i*mem.LineWords), &txv)
		}
		l.Validate()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocs per cycle, want 0", n)
	}
}
