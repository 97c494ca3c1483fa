package core_test

import (
	"sync"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/explore"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// Scenario tests for the paper's protocol figures (Figures 1–3). Figure 2's
// postfix-atomicity scenario lives in rhnorec_test.go (TestScenarioFigure2);
// this file covers the Figure 1 hazard on Hybrid NOrec and the Figure 3
// concurrency schedule.

// TestScenarioFigure1HybridNOrec: the Figure 1 hazard — a slow path updates
// X then Y while a hardware fast path reads both — must be prevented by
// Hybrid NOrec too (its htm-lock subscription kills the fast path instead).
// The observable property is the same as Figure 2's: no fast path ever
// returns new-X with old-Y.
func TestScenarioFigure1HybridNOrec(t *testing.T) {
	m := mem.New(1 << 18)
	dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 4, WriteCapacityLines: 2})
	dev.SetActiveThreads(2)
	sys := core.NewHybridNOrec(m, dev, tm.RetryPolicy{})
	setup := sys.NewThread()
	var x, y, filler mem.Addr
	if err := setup.Run(func(tx tm.Tx) error {
		x = tx.Alloc(mem.LineWords)
		y = tx.Alloc(mem.LineWords)
		filler = tx.Alloc(64 * mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // capacity-bound writer: always the software slow path
		defer wg.Done()
		th := sys.NewThread()
		defer th.Close()
		for i := uint64(1); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			_ = th.Run(func(tx tm.Tx) error {
				for k := 0; k < 8; k++ {
					tx.Store(filler+mem.Addr(k*8*mem.LineWords), i)
				}
				tx.Store(x, i)
				tx.Store(y, i)
				return nil
			})
		}
	}()
	th := sys.NewThread()
	defer th.Close()
	torn := 0
	for i := 0; i < 2000; i++ {
		_ = th.RunReadOnly(func(tx tm.Tx) error {
			if tx.Load(x) != tx.Load(y) {
				torn++
			}
			return nil
		})
	}
	close(done)
	wg.Wait()
	if torn != 0 {
		t.Errorf("Hybrid NOrec admitted %d torn X/Y reads (Figure 1 hazard)", torn)
	}
}

// figure3 runs Figure 3's schedule on sys, pinned under internal/explore so
// the overlap the figure is about always happens: a slow-path transaction
// (long read phase, short write phase — read capacity keeps it off the
// hardware fast path) is parked inside its write phase, and a read-only
// observer of unrelated data then runs its transactions against it. The
// observer is let run until it finishes or suffers its first abort (after
// which it may be waiting on a lock the parked writer holds), then the
// writer finishes, then whatever is left. It returns both threads' stats.
func figure3(t *testing.T, newSys func(*mem.Memory, *htm.Device) tm.System) (observer, slow tm.Stats) {
	t.Helper()
	const observations = 20
	var (
		obsTh, slowTh tm.Thread
		writePhase    bool
	)
	sc := explore.Scenario{
		Name:         "figure-3",
		FixedWorkers: 2,
		DefaultOps:   1,
		// Read capacity forces the mixed path; write capacity comfortably
		// fits the postfix.
		HTM: htm.Config{ReadCapacityLines: 8, WriteCapacityLines: 64},
		Build: func(env *explore.Env, _ explore.Config) ([]func(), func() error, error) {
			sys := newSys(env.M, env.Dev)
			setup := sys.NewThread()
			defer setup.Close()
			var big, obs mem.Addr
			err := setup.Run(func(tx tm.Tx) error {
				big = tx.Alloc(32 * mem.LineWords)
				obs = tx.Alloc(mem.LineWords)
				tx.Store(obs, 7)
				return nil
			})
			obsTh, slowTh = sys.NewThread(), sys.NewThread()
			observe := func() {
				for i := 0; i < observations; i++ {
					if err := obsTh.RunReadOnly(func(tx tm.Tx) error {
						if tx.Load(obs) != 7 {
							env.Violatef("observer read corrupted data")
						}
						return nil
					}); err != nil {
						env.Violatef("observer: %v", err)
					}
				}
			}
			write := func() {
				_ = slowTh.Run(func(tx tm.Tx) error {
					var sum uint64
					for k := 0; k < 32; k++ {
						sum += tx.Load(big + mem.Addr(k*mem.LineWords))
					}
					for k := 0; k < 4; k++ {
						tx.Store(big+mem.Addr(k*mem.LineWords), sum+1)
						writePhase = true // only a software-path attempt survives the 32 reads
					}
					writePhase = false
					return nil
				})
			}
			return []func(){observe, write}, nil, err
		},
	}
	res, err := explore.RunScenario(sc, explore.Config{}, explore.Steer(
		explore.Leg{Worker: 1, Until: func() bool { return writePhase }},
		explore.Leg{Worker: 0, Until: func() bool { return obsTh.Stats().HTMAborts() > 0 }},
		explore.Leg{Worker: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != explore.OutcomeOK {
		t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
	}
	defer obsTh.Close()
	defer slowTh.Close()
	observer, slow = *obsTh.Stats(), *slowTh.Stats()
	if observer.Commits != observations || slow.SlowPathCommits != 1 {
		t.Fatalf("observer committed %d of %d, slow path committed %d of 1", observer.Commits, observations, slow.SlowPathCommits)
	}
	return observer, slow
}

// TestScenarioFigure3Concurrency reproduces Figure 3's schedule property:
// hardware fast paths keep committing while a mixed slow path is executing
// — including read-only fast paths during the slow path's write phase. In
// Hybrid NOrec the first slow-path write (htm lock) would abort them all;
// in RH NOrec the postfix keeps the htm lock free, so concurrent read-only
// fast paths must keep succeeding throughout.
func TestScenarioFigure3Concurrency(t *testing.T) {
	observer, slow := figure3(t, func(m *mem.Memory, dev *htm.Device) tm.System {
		return core.New(m, dev, tm.RetryPolicy{})
	})
	if slow.PostfixCommits != 1 {
		t.Fatalf("slow path never exercised the postfix: %+v", slow)
	}
	if observer.FastPathCommits != observer.Commits || observer.HTMAborts() != 0 {
		t.Errorf("read-only observer was disturbed (%d fallbacks, %d aborts); Figure 3 concurrency requires the fast path to survive slow-path writers",
			observer.Fallbacks, observer.HTMAborts())
	}
}

// TestScenarioFigure3HybridContrast runs the same schedule on Hybrid NOrec
// and asserts the opposite: the observer *is* disturbed (it suffers aborts
// caused by the slow-path writer taking the htm lock), demonstrating what
// the RH postfix buys.
func TestScenarioFigure3HybridContrast(t *testing.T) {
	observer, _ := figure3(t, func(m *mem.Memory, dev *htm.Device) tm.System {
		return core.NewHybridNOrec(m, dev, tm.RetryPolicy{})
	})
	if observer.HTMExplicitAborts == 0 {
		t.Error("Hybrid NOrec observer saw no htm-lock abort despite a slow-path writer in its write phase — the htm-lock cost did not manifest")
	}
}

// segmentProof is the world of the read-segment proofs: two words that every
// committed state keeps at x + y = segmentTotal, and an auditor that cannot
// fit the 6-line hardware — it reads x, two fillers and a third that meets
// its 4-read prefix budget and opens a read segment, one more filler, then
// y, asserting the invariant inside the transaction. The interleavings are
// pinned with explore.Steer in terms of where the auditor is.
type segmentProof struct {
	sys     *core.System
	auditor tm.Thread
	other   tm.Thread
	x, y    mem.Addr
	out     mem.Addr
	clock0  uint64 // the clock when the workers start
	// readFiller is set once the auditor's current attempt has read the
	// filler before y; with a segment begun, that segment is live and has
	// not read y.
	readFiller bool
}

const segmentTotal = 1000

// inSegment: the auditor is parked inside its first read segment, before
// its read of y.
func (p *segmentProof) inSegment() bool {
	return p.readFiller && p.auditor.Stats().SegmentAttempts == 1
}

// run executes the auditor (worker 0; it also stores x+y to out when
// auditWrites) against other (worker 1) under legs.
func (p *segmentProof) run(t *testing.T, auditWrites bool, other func(tm.Tx) error, legs ...explore.Leg) {
	t.Helper()
	sc := explore.Scenario{
		Name:         "read-segment-proof",
		FixedWorkers: 2,
		DefaultOps:   1,
		HTM:          htm.Config{ReadCapacityLines: 6, WriteCapacityLines: 4},
		Build: func(env *explore.Env, _ explore.Config) ([]func(), func() error, error) {
			p.sys = core.New(env.M, env.Dev, tm.RetryPolicy{})
			sys := prefixBudget{p.sys, 4}
			setup := sys.NewThread()
			defer setup.Close()
			var fill mem.Addr
			err := setup.Run(func(tx tm.Tx) error {
				p.x, p.y, p.out = tx.Alloc(mem.LineWords), tx.Alloc(mem.LineWords), tx.Alloc(mem.LineWords)
				fill = tx.Alloc(4 * mem.LineWords)
				tx.Store(p.x, segmentTotal*6/10)
				tx.Store(p.y, segmentTotal*4/10)
				return nil
			})
			p.clock0 = env.M.LoadPlain(core.ClockAddr(p.sys))
			p.auditor, p.other = sys.NewThread(), sys.NewThread()
			audit := func() {
				if err := p.auditor.Run(func(tx tm.Tx) error {
					p.readFiller = false
					vx := tx.Load(p.x)
					for k := 0; k < 4; k++ {
						tx.Load(fill + mem.Addr(k*mem.LineWords))
					}
					p.readFiller = true
					vy := tx.Load(p.y)
					if vx+vy != segmentTotal {
						env.Violatef("auditor saw x=%d y=%d, sum %d != %d", vx, vy, vx+vy, segmentTotal)
					}
					if auditWrites {
						tx.Store(p.out, vx+vy)
					}
					return nil
				}); err != nil {
					env.Violatef("auditor: %v", err)
				}
			}
			concurrent := func() {
				if err := p.other.Run(other); err != nil {
					env.Violatef("worker 1: %v", err)
				}
			}
			return []func(){audit, concurrent}, nil, err
		},
	}
	res, err := explore.RunScenario(sc, explore.Config{}, explore.Steer(legs...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.auditor.Close(); p.other.Close() })
	if res.Outcome != explore.OutcomeOK {
		t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
	}
	if a, o := p.auditor.Stats(), p.other.Stats(); a.SlowPathCommits != 1 || a.PrefixCommits != a.PrefixAttempts || o.FastPathCommits != 1 {
		t.Fatalf("auditor: %d slow-path commits, %d of %d prefixes committed; worker 1: %d fast-path commits; want 1, all, 1",
			a.SlowPathCommits, a.PrefixCommits, a.PrefixAttempts, o.FastPathCommits)
	}
}

// transfer moves 100 from x to y: a hardware fast-path writer whose commit
// bumps the clock, the auditor being a registered fallback by then.
func (p *segmentProof) transfer(tx tm.Tx) error {
	vx, vy := tx.Load(p.x), tx.Load(p.y)
	tx.Store(p.x, vx-100)
	tx.Store(p.y, vy+100)
	return nil
}

// TestSegmentDiesBeforeReturningALaterSnapshot: a writer commits to a line
// the live segment has not read yet. x came from the prefix's snapshot, so
// returning the new y would hand the callback x + y ≠ total — which is what
// a segment that checked the clock only at its end would do. With the clock
// subscribed first, the load of y kills the segment instead.
func TestSegmentDiesBeforeReturningALaterSnapshot(t *testing.T) {
	var p segmentProof
	p.run(t, false, p.transfer,
		explore.Leg{Worker: 0, Until: p.inSegment},
		explore.Leg{Worker: 1},
		explore.Leg{Worker: 0},
	)
	a := p.auditor.Stats()
	if a.SegmentAttempts != 2 || a.SegmentCommits != 1 || a.HTMConflictAborts != 1 || a.SlowPathRestarts != 1 {
		t.Errorf("%d segments begun, %d committed, %d conflict aborts, %d restarts; want 2, 1, 1, 1 (the first segment dies of the writer's clock bump)",
			a.SegmentAttempts, a.SegmentCommits, a.HTMConflictAborts, a.SlowPathRestarts)
	}
	if a.PrefixAttempts != 2 {
		t.Errorf("%d prefix attempts, want 2: a conflict in a segment must not ban the prefix", a.PrefixAttempts)
	}
}

// TestSegmentRestartsWhenClockMovedBeforeItBegan: the writer commits after
// the prefix has committed and before the segment subscribes, so no hardware
// read set holds the clock while it moves. The segment's first instruction
// finds it off the prefix's snapshot and restarts the attempt.
func TestSegmentRestartsWhenClockMovedBeforeItBegan(t *testing.T) {
	var p segmentProof
	p.run(t, false, p.transfer,
		explore.Leg{Worker: 0, Until: func() bool { return p.auditor.Stats().PrefixCommits == 1 }},
		explore.Leg{Worker: 1},
		explore.Leg{Worker: 0},
	)
	a := p.auditor.Stats()
	if a.SegmentAttempts != 2 || a.SegmentCommits != 1 || a.SlowPathRestarts != 1 || a.HTMConflictAborts != 0 {
		t.Errorf("%d segments begun, %d committed, %d restarts, %d conflict aborts; want 2, 1, 1, 0 (a Restart at the segment's begin, not a hardware abort)",
			a.SegmentAttempts, a.SegmentCommits, a.SlowPathRestarts, a.HTMConflictAborts)
	}
}

// TestPostfixAfterSegmentLocksTheClockFromTheSnapshot: nothing moves the
// clock while the auditor reads (a read-only fast path runs inside its
// segment and leaves it alone), so the first write commits the segment and
// Algorithm 2 continues from the prefix's txv: one CAS, one postfix, and the
// clock two past where the workers found it.
func TestPostfixAfterSegmentLocksTheClockFromTheSnapshot(t *testing.T) {
	var p segmentProof
	p.run(t, true, func(tx tm.Tx) error {
		if vx, vy := tx.Load(p.x), tx.Load(p.y); vx+vy != segmentTotal {
			t.Errorf("observer saw x=%d y=%d", vx, vy)
		}
		return nil
	},
		explore.Leg{Worker: 0, Until: p.inSegment},
		explore.Leg{Worker: 1},
		explore.Leg{Worker: 0},
	)
	a := p.auditor.Stats()
	if a.SlowPathRestarts != 0 || a.SegmentCommits != 1 || a.PostfixCommits != 1 {
		t.Errorf("%d restarts, %d segments committed, %d postfixes committed; want 0, 1, 1",
			a.SlowPathRestarts, a.SegmentCommits, a.PostfixCommits)
	}
	m := p.sys.Memory()
	if got := m.LoadPlain(core.ClockAddr(p.sys)); got != p.clock0+2 {
		t.Errorf("clock %d → %d, want one commit (+2)", p.clock0, got)
	}
	if got := m.LoadPlain(p.out); got != segmentTotal {
		t.Errorf("out = %d, want %d", got, segmentTotal)
	}
}

// TestPrefixDiesUnderLockedClock: a prefix that reaches commitPrefix while
// another thread's slow-path writer holds the clock (Algorithm 3 lines
// 47–56) must die there. The writer has locked the clock at its first write
// and parked inside its postfix, so the HTM lock is free and the auditor's
// prefix begins and reads x (600) and two fillers at the committed state;
// its fourth read, y, meets the budget and reaches commitPrefix, which
// finds the clock odd. Then the writer's postfix commits x = y = 500 and
// parks before its clock release. A prefix that committed at the odd clock
// would hold it as its snapshot — with tm.Clock, Held would report the
// writer's lock as its own — and read y = 500 under it, handing the
// callback x + y = 1100. Dead, the prefix is banned, and the retry waits
// for the even clock and reads 500 and 500.
func TestPrefixDiesUnderLockedClock(t *testing.T) {
	var (
		auditor, writer tm.Thread
		x, y            mem.Addr
		writerStored    bool
		rec             = obs.NewRecorder(obs.Config{})
	)
	sc := explore.Scenario{
		Name:         "prefix-under-locked-clock",
		FixedWorkers: 2,
		DefaultOps:   1,
		Build: func(env *explore.Env, _ explore.Config) ([]func(), func() error, error) {
			// DisableFast puts both threads on the mixed slow path; the
			// auditor's prefix ends at its fourth read.
			sys := prefixBudget{core.New(env.M, env.Dev, tm.RetryPolicy{DisableFast: true}), 4}
			setup := sys.NewThread()
			defer setup.Close()
			var fill mem.Addr
			err := setup.Run(func(tx tm.Tx) error {
				x, y = tx.Alloc(mem.LineWords), tx.Alloc(mem.LineWords)
				fill = tx.Alloc(2 * mem.LineWords)
				tx.Store(x, segmentTotal*6/10)
				tx.Store(y, segmentTotal*4/10)
				return nil
			})
			auditor, writer = sys.NewThread(), sys.NewThread()
			auditor.Stats().Obs = rec
			audit := func() {
				if err := auditor.Run(func(tx tm.Tx) error {
					vx := tx.Load(x)
					tx.Load(fill)
					tx.Load(fill + mem.LineWords)
					if vy := tx.Load(y); vx+vy != segmentTotal {
						env.Violatef("auditor saw x=%d y=%d, sum %d != %d", vx, vy, vx+vy, segmentTotal)
					}
					return nil
				}); err != nil {
					env.Violatef("auditor: %v", err)
				}
			}
			write := func() {
				if err := writer.Run(func(tx tm.Tx) error {
					tx.Store(x, segmentTotal/2)
					tx.Store(y, segmentTotal/2)
					writerStored = true // in the postfix, the clock locked
					return nil
				}); err != nil {
					env.Violatef("writer: %v", err)
				}
			}
			return []func(){audit, write}, nil, err
		},
	}
	prefixEnded := func() bool { return auditor.Stats().PrefixCommits > 0 || auditor.Stats().HTMAborts() > 0 }
	prefixDied := func() bool { return auditor.Stats().HTMAborts() > 0 }
	res, err := explore.RunScenario(sc, explore.Config{}, explore.Steer(
		explore.Leg{Worker: 1, Until: func() bool { return writerStored }},
		explore.Leg{Worker: 0, Until: prefixEnded},
		explore.Leg{Worker: 1, Until: func() bool { return writer.Stats().PostfixCommits == 1 }},
		// A live auditor reads y now, before the clock release; a dead
		// prefix's retry would only spin on the odd clock.
		explore.Leg{Worker: 0, Until: prefixDied},
		explore.Leg{Worker: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditor.Close(); writer.Close() })
	if res.Outcome != explore.OutcomeOK {
		t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
	}
	a, w := auditor.Stats(), writer.Stats()
	if a.PrefixAttempts != 1 || a.PrefixCommits != 0 || rec.AbortCount(obs.CauseClockLocked) != 1 || a.SlowPathCommits != 1 {
		t.Errorf("auditor: %d prefixes begun, %d committed, %d clock-locked aborts, %d slow-path commits; want 1, 0, 1, 1",
			a.PrefixAttempts, a.PrefixCommits, rec.AbortCount(obs.CauseClockLocked), a.SlowPathCommits)
	}
	if w.PostfixCommits != 1 || w.SlowPathRestarts != 0 {
		t.Errorf("writer: %d postfix commits, %d restarts; want 1, 0", w.PostfixCommits, w.SlowPathRestarts)
	}
}
