package explore

import (
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/hynorec"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/tm"
)

// TestWaitsParkOnTheirWord pins, for every spin wait in the drivers, one
// worker holding the awaited word while the other runs into the wait: after
// its last hardware operation, every step the waiter parks at must name
// that word — a wait that yields without a hooked operation would hang
// the explorer, one that polls another word would wait on the wrong thing —
// and once the holder finishes, the waiter must commit.
//
// The words are the systems' first allocations, so a twin memory built the
// same way names them. The holder reads more lines than the hardware holds,
// so a hybrid's holder runs on its slow path; to hold the serial lock it
// restarts until the starvation escape (10 restarts, §3.3) hands it over.
func TestWaitsParkOnTheirWord(t *testing.T) {
	const (
		holderLines = 12
		waitSteps   = 40
	)
	twin := func() *mem.Memory { return mem.New(1 << 16) }
	globals := hynorec.NewGlobals(twin())
	firstLine := twin().NewThreadCache().Alloc(mem.LineWords)
	odd := func(v uint64) bool { return v&1 != 0 }
	set := func(v uint64) bool { return v != 0 }
	rows := []struct {
		name string
		new  func(*mem.Memory, *htm.Device) tm.System
		word mem.Addr
		// holding reports, with words read off memory without yielding,
		// that the holder holds the word and the waiter cannot get past it.
		holding func(peek func(mem.Addr) uint64) bool
		// serialize: the holder restarts until it holds the serial lock.
		serialize bool
	}{
		{
			name: "hy-norec FastReady after ArgHTMLockTaken",
			new: func(m *mem.Memory, d *htm.Device) tm.System {
				return core.NewHybridNOrec(m, d, tm.RetryPolicy{})
			},
			word:    globals.HTMLock,
			holding: func(peek func(mem.Addr) uint64) bool { return set(peek(globals.HTMLock)) },
		},
		{
			name: "rh-norec FastReady after ArgClockLocked",
			new: func(m *mem.Memory, d *htm.Device) tm.System {
				return core.New(m, d, tm.RetryPolicy{})
			},
			word:    globals.Clock,
			holding: func(peek func(mem.Addr) uint64) bool { return odd(peek(globals.Clock)) },
		},
		{
			name: "rh-norec FastReady after ArgSerialTaken",
			new: func(m *mem.Memory, d *htm.Device) tm.System {
				return core.New(m, d, tm.RetryPolicy{})
			},
			word: globals.SerialLock,
			holding: func(peek func(mem.Addr) uint64) bool {
				return set(peek(globals.SerialLock)) && set(peek(globals.Fallbacks))
			},
			serialize: true,
		},
		{
			name:    "norec Clock.Snapshot on an odd clock",
			new:     func(m *mem.Memory, _ *htm.Device) tm.System { return norec.New(m, norec.Eager) },
			word:    firstLine,
			holding: func(peek func(mem.Addr) uint64) bool { return odd(peek(firstLine)) },
		},
		{
			name:    "serial AcquireLock",
			new:     func(m *mem.Memory, _ *htm.Device) tm.System { return lockelision.NewSerial(m) },
			word:    firstLine,
			holding: func(peek func(mem.Addr) uint64) bool { return set(peek(firstLine)) },
		},
		{
			name: "lock-elision AcquireLock",
			new: func(m *mem.Memory, d *htm.Device) tm.System {
				return lockelision.New(m, d, tm.RetryPolicy{DisableFast: true})
			},
			word:    firstLine,
			holding: func(peek func(mem.Addr) uint64) bool { return set(peek(firstLine)) },
		},
		{
			name: "lock-elision FastReady",
			new: func(m *mem.Memory, d *htm.Device) tm.System {
				return lockelision.New(m, d, tm.RetryPolicy{})
			},
			word:    firstLine,
			holding: func(peek func(mem.Addr) uint64) bool { return set(peek(firstLine)) },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var (
				holder, waiter tm.Thread
				peek           func(mem.Addr) uint64
			)
			sc := Scenario{
				Name:         "wait-parks-on-its-word",
				FixedWorkers: 2,
				DefaultOps:   1,
				HTM:          htm.Config{ReadCapacityLines: 8},
				Build: func(env *Env, _ Config) ([]func(), func() error, error) {
					sys := row.new(env.M, env.Dev)
					peek = func(a mem.Addr) uint64 {
						var w [1]uint64
						env.M.Snapshot(a, w[:])
						return w[0]
					}
					setup := sys.NewThread()
					defer setup.Close()
					var lines, own mem.Addr
					err := setup.Run(func(tx tm.Tx) error {
						lines = tx.Alloc(holderLines * mem.LineWords)
						own = tx.Alloc(mem.LineWords)
						return nil
					})
					holder, waiter = sys.NewThread(), sys.NewThread()
					hold := func() {
						if err := holder.Run(func(tx tm.Tx) error {
							var sum uint64
							for i := 0; i < holderLines; i++ {
								sum += tx.Load(lines + mem.Addr(i*mem.LineWords))
							}
							if row.serialize && peek(globals.SerialLock) == 0 {
								tm.Restart()
							}
							tx.Store(lines, sum+1)
							return nil
						}); err != nil {
							env.Violatef("holder: %v", err)
						}
					}
					wait := func() {
						if err := waiter.Run(func(tx tm.Tx) error {
							tx.Store(own, tx.Load(own)+1)
							return nil
						}); err != nil {
							env.Violatef("waiter: %v", err)
						}
					}
					return []func(){hold, wait}, nil, err
				},
			}
			steps := 0
			res, err := RunScenario(sc, Config{}, Steer(
				Leg{Worker: 0, Until: func() bool { return row.holding(peek) }},
				Leg{Worker: 1, Until: func() bool { steps++; return steps > waitSteps }},
				Leg{Worker: 0},
				Leg{Worker: 1},
			))
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			defer waiter.Close()
			if res.Outcome != OutcomeOK {
				t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
			}
			if c := waiter.Stats().Commits; c != 1 {
				t.Errorf("waiter commits = %d, want 1 once the word is released", c)
			}
			if r := holder.Stats().SlowPathRestarts; row.serialize && r != 10 {
				t.Errorf("holder restarts = %d, want the serial lock after 10", r)
			}
			// The waiter's leg is its first run of steps, and the wait is
			// what the leg parks at after its last hardware operation.
			start := 0
			for start < len(res.Events) && res.Events[start].Worker != 1 {
				start++
			}
			end, waitStart := start, start
			for ; end < len(res.Events) && res.Events[end].Worker == 1; end++ {
				if p := res.Events[end].Point; p < PointMemLoad || p > PointMemCommit {
					waitStart = end + 1
				}
			}
			waiting := end - waitStart
			for _, ev := range res.Events[waitStart:end] {
				if ev.Addr != row.word {
					t.Fatalf("waiter parked at %v %d, want the awaited word %d", ev.Point, ev.Addr, row.word)
				}
			}
			if waiting < waitSteps/2 {
				t.Errorf("waiter parked %d times on the word while it was held, want >= %d", waiting, waitSteps/2)
			}
		})
	}
}
