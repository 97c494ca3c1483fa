package core_test

import (
	"errors"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// These tests pin the prefix-length adaptation rule (adaptPrefixAfterAbort,
// adaptPrefixAfterSuccess) and the read segments chained behind a prefix that
// met its budget. Each runs one thread against a 64-line device, so every
// abort in them is caused by the test itself, at a read it chose.

const (
	prefixTestCap = 64 // read-capacity lines of the test device
	// A prefix subscribes to the HTM lock (one line) before its first read,
	// so prefixTestCap-1 reads of distinct lines retire and the next one
	// overflows.
	prefixTestRetired = prefixTestCap - 1
)

// prefixWorld is one thread over an array of lines, on a device whose read
// capacity the array overflows.
type prefixWorld struct {
	m    *mem.Memory
	dev  *htm.Device
	sys  *core.System
	th   tm.Thread
	base mem.Addr // 512 lines
	out  mem.Addr
}

func newPrefixWorld(t *testing.T, pol tm.RetryPolicy) *prefixWorld {
	t.Helper()
	w := &prefixWorld{m: mem.New(1 << 16)}
	w.dev = htm.NewDevice(w.m, htm.Config{ReadCapacityLines: prefixTestCap, WriteCapacityLines: 16})
	w.dev.SetActiveThreads(1)
	w.sys = core.New(w.m, w.dev, pol)
	w.th = w.sys.NewThread()
	t.Cleanup(func() { w.th.Close() })
	if err := w.th.Run(func(tx tm.Tx) error {
		w.base = tx.Alloc(512 * mem.LineWords)
		w.out = tx.Alloc(mem.LineWords)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// audit reads `reads` words, `perLine` of them from each line, and writes
// one: with perLine 1 and more reads than the device has lines it cannot
// commit in hardware. firstTry, when non-nil, runs after the reads of the
// Run's first invocation of the callback.
func (w *prefixWorld) audit(reads, perLine int, firstTry func() error) error {
	return w.auditAt(reads, func(i int) mem.Addr {
		return w.base + mem.Addr(i/perLine*mem.LineWords+i%perLine)
	}, firstTry)
}

// auditAt is audit with the address of its i-th read given by at.
func (w *prefixWorld) auditAt(reads int, at func(i int) mem.Addr, firstTry func() error) error {
	invocation := 0
	return w.th.Run(func(tx tm.Tx) error {
		invocation++
		var sum uint64
		for i := 0; i < reads; i++ {
			sum += tx.Load(at(i))
		}
		if firstTry != nil && invocation == 1 {
			if err := firstTry(); err != nil {
				return err
			}
		}
		tx.Store(w.out, sum+1)
		return nil
	})
}

func (w *prefixWorld) mustAudit(t *testing.T, reads, perLine int) {
	t.Helper()
	if err := w.audit(reads, perLine, nil); err != nil {
		t.Fatal(err)
	}
}

// prefixAborts is the number of prefixes that have died so far.
func (w *prefixWorld) prefixAborts() uint64 {
	s := w.th.Stats()
	return s.PrefixAttempts - s.PrefixCommits
}

// TestPrefixBudgetConvergesInOneCapacityAbort: from the default 4 096 reads,
// the one prefix that overflows leaves a budget just under the reads it
// retired, and the next prefix commits at that budget — not after the three
// halvings (4 096 → 2 048 → … ) a blind shrink would need per power of two.
func TestPrefixBudgetConvergesInOneCapacityAbort(t *testing.T) {
	w := newPrefixWorld(t, tm.RetryPolicy{})
	if got := core.PrefixBudget(w.th); got != 4096 {
		t.Fatalf("initial budget = %d, want 4096", got)
	}
	w.mustAudit(t, 200, 1)
	budget := core.PrefixBudget(w.th)
	if budget < 3*prefixTestRetired/4 || budget >= prefixTestRetired {
		t.Fatalf("budget after one capacity abort at %d retired reads = %d, want in [%d, %d)",
			prefixTestRetired, budget, 3*prefixTestRetired/4, prefixTestRetired)
	}
	if s := w.th.Stats(); s.PrefixAttempts != 1 || s.PrefixCommits != 0 || s.PrefixReads != 0 || s.SoftwareReads != 200 {
		t.Fatalf("after the overflowing prefix: %d attempts, %d commits, %d prefix reads, %d software reads; want 1, 0, 0, 200",
			s.PrefixAttempts, s.PrefixCommits, s.PrefixReads, s.SoftwareReads)
	}
	w.mustAudit(t, 200, 1)
	s := w.th.Stats()
	if s.PrefixAttempts != 2 || s.PrefixCommits != 1 {
		t.Fatalf("second audit: %d prefix attempts, %d commits; want 2, 1", s.PrefixAttempts, s.PrefixCommits)
	}
	// The budget-th read ends the prefix and opens the first of the read
	// segments that carry the rest, a budget of reads each.
	want := uint64(budget - 1)
	if s.PrefixReads != want || s.SegmentReads != 200-want || s.SoftwareReads != 200 {
		t.Errorf("second audit retired %d reads in its prefix, %d in segments and %d in software, want %d, %d and 0",
			s.PrefixReads, s.SegmentReads, s.SoftwareReads-200, want, 200-want)
	}
	if segs := (200 - want + uint64(budget) - 1) / uint64(budget); s.SegmentAttempts != segs || s.SegmentCommits != segs {
		t.Errorf("second audit ran %d segments and committed %d, want %d of both", s.SegmentAttempts, s.SegmentCommits, segs)
	}
	if got := core.PrefixBudget(w.th); got != budget {
		t.Errorf("budget moved %d → %d on a committed prefix", budget, got)
	}
}

// TestPrefixBudgetHoldsOnStableOverCapacityLoad: identical over-capacity
// transactions must not sawtooth into a banned prefix every few commits
// (halve/double did: about one dead prefix in five).
func TestPrefixBudgetHoldsOnStableOverCapacityLoad(t *testing.T) {
	w := newPrefixWorld(t, tm.RetryPolicy{})
	for i := 0; i < 200; i++ {
		w.mustAudit(t, 200, 1)
	}
	if got := w.prefixAborts(); got > 5 {
		t.Errorf("%d of 200 prefixes died, want at most 5", got)
	}
	s := w.th.Stats()
	if s.SlowPathCommits != 200 || s.SlowPathRestarts != w.prefixAborts() {
		t.Errorf("%d slow-path commits, %d restarts, %d dead prefixes: every restart should be a dead prefix",
			s.SlowPathCommits, s.SlowPathRestarts, w.prefixAborts())
	}
}

// hookFunc adapts a function to htm.Hook: it is told every device boundary
// and may inject a fault there.
type hookFunc func(op htm.HookOp) htm.Directive

func (h hookFunc) Yield(op htm.HookOp, _ mem.Addr, _ uint64) htm.Directive { return h(op) }

// abortHook runs fn as a hardware transaction dies, before the panic
// unwinds — here, to release what the test locked to kill it.
func abortHook(fn func()) htm.Hook {
	return hookFunc(func(op htm.HookOp) htm.Directive {
		if op == htm.HookAbort {
			fn()
		}
		return htm.DirNone
	})
}

// TestPrefixBudgetMovesOnlyWhenLengthWasTheCause: every row first lets one
// capacity abort settle the budget, then kills the prefix of a transaction
// that fits it a different way. The fast path is off, so the first
// invocation of a callback is the prefix attempt.
func TestPrefixBudgetMovesOnlyWhenLengthWasTheCause(t *testing.T) {
	errUser := errors.New("user abort")
	// release, when a row sets it, runs as the killed prefix dies. The hook
	// that runs it is installed before the transaction begins, as
	// Device.SetHook requires.
	var release func()
	cases := []struct {
		name string
		// kill ends the prefix attempt; it runs after the attempt's reads.
		kill    func(w *prefixWorld) error
		halves  bool // the budget halves; otherwise it must not move
		wantErr error
	}{
		{
			name: "explicit clock-locked abort",
			kill: func(w *prefixWorld) error {
				// Lock the clock under the prefix, so its commit point finds
				// it taken; release it as the prefix dies, before the
				// software retry would wait on it.
				clock := core.ClockAddr(w.sys)
				v := w.m.LoadPlain(clock)
				w.m.StorePlain(clock, v|1)
				release = func() { w.m.StorePlain(clock, v) }
				return nil
			},
		},
		{
			name: "Restart raised inside the prefix",
			kill: func(*prefixWorld) error { tm.Restart(); return nil },
		},
		{
			name:    "user error inside the prefix",
			kill:    func(*prefixWorld) error { return errUser },
			wantErr: errUser,
		},
		{
			name: "conflict abort",
			kill: func(w *prefixWorld) error {
				// A foreign store to a word the prefix has read.
				w.m.StorePlain(w.base, w.m.LoadPlain(w.base)+1)
				return nil
			},
			halves: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newPrefixWorld(t, tm.RetryPolicy{DisableFast: true})
			w.mustAudit(t, 200, 1)
			settled := core.PrefixBudget(w.th)
			aborts := w.prefixAborts()
			w.dev.SetHook(abortHook(func() {
				if fn := release; fn != nil {
					release = nil
					fn()
				}
			}))
			err := w.audit(40, 1, func() error { return tc.kill(w) })
			w.dev.SetHook(nil)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := w.prefixAborts(); got != aborts+1 {
				t.Fatalf("%d prefixes died in the killed transaction, want 1", got-aborts)
			}
			want := settled
			if tc.halves {
				want = settled / 2
			}
			if got := core.PrefixBudget(w.th); got != want {
				t.Errorf("budget %d → %d, want %d", settled, got, want)
			}
		})
	}
}

// TestPrefixBudgetClimbsBackAfterPhaseChange: once transactions stop
// overflowing the hardware (the same number of reads over an eighth of the
// lines), the budget a capacity abort cut returns to InitialPrefixLength.
// Past an observed capacity point each step of a sixteenth waits for 64
// committed prefixes and 55 → 256 is 24 steps, so 1 600 commits bound it.
func TestPrefixBudgetClimbsBackAfterPhaseChange(t *testing.T) {
	const initial, bound = 256, 1600
	w := newPrefixWorld(t, tm.RetryPolicy{InitialPrefixLength: initial, DisableFast: true})
	w.mustAudit(t, 300, 1)
	last := core.PrefixBudget(w.th)
	if last >= prefixTestRetired {
		t.Fatalf("budget after the capacity abort = %d, want under %d", last, prefixTestRetired)
	}
	aborts := w.prefixAborts()
	commits := 0
	for ; core.PrefixBudget(w.th) < initial && commits < bound; commits++ {
		w.mustAudit(t, 300, 8) // 38 lines: fits, but longer than the budget
		if got := core.PrefixBudget(w.th); got < last {
			t.Fatalf("budget fell %d → %d with no abort", last, got)
		} else {
			last = got
		}
	}
	if got := core.PrefixBudget(w.th); got != initial {
		t.Errorf("budget = %d after %d in-capacity commits, want %d within %d", got, commits, initial, bound)
	}
	if got := w.prefixAborts(); got != aborts {
		t.Errorf("%d prefixes died while climbing back", got-aborts)
	}
	t.Logf("back at %d after %d commits", initial, commits)
}

// The segment tests run a 100-read budget on the 64-line device: the prefix
// retires segDense-1 reads packed eight to a line (13 lines), the segDense-th
// read opens a read segment, and the reads after it take a line each, so the
// test chooses how many lines the segment sees.
const segDense = 100

func newSegmentWorld(t *testing.T) *prefixWorld {
	w := newPrefixWorld(t, tm.RetryPolicy{InitialPrefixLength: segDense, DisableFast: true})
	*w.th.Stats() = tm.Stats{} // the set-up transaction ran a prefix too
	return w
}

// segmentAddr is the address of the segment tests' i-th read.
func (w *prefixWorld) segmentAddr(i int) mem.Addr {
	if i < segDense {
		return w.base + mem.Addr(i)
	}
	return w.base + mem.Addr((segDense/mem.LineWords+1+i-segDense)*mem.LineWords)
}

// TestSegmentDeathRules: a read segment the hardware refuses — capacity, or a
// spurious abort — ends the chain for the rest of the Run, so the retry reads
// in software behind its prefix, and capacity also resizes the budget from
// the segment's own read count; one that dies because the clock moved — a
// conflict on a line it read, or the Restart at its first instruction — is
// the software phase's validation restart: the retry chains again and the
// budget stays.
func TestSegmentDeathRules(t *testing.T) {
	// inFirstSegment installs a hook that calls at for every device boundary
	// after the Run's second Begin — its first segment's — until the third.
	inFirstSegment := func(w *prefixWorld, at func(op htm.HookOp) htm.Directive) {
		begins := 0
		w.dev.SetHook(hookFunc(func(op htm.HookOp) htm.Directive {
			if op == htm.HookBegin {
				begins++
			}
			if begins == 2 {
				return at(op)
			}
			return htm.DirNone
		}))
	}
	cases := []struct {
		name  string
		reads int
		// arm runs before the transaction, kill after the reads of its first
		// attempt, with a segment live.
		arm  func(w *prefixWorld)
		kill func(w *prefixWorld)
		// What the whole Run must add to the thread's counters — it restarts
		// once, and both attempts' prefixes commit — and the budget it must
		// leave.
		segments, segmentCommits, softwareReads uint64
		capacity, spurious, conflict            uint64
		budget                                  int
	}{
		{
			// The clock and 63 one-line reads fill the device; the 64th
			// overflows it. The retry's prefix runs at the new budget of 55,
			// and everything behind its 54 reads is software.
			name: "capacity", reads: segDense + 100,
			segments: 1, capacity: 1, softwareReads: segDense + 100 - 54,
			budget: prefixTestCap - prefixTestCap/8 - 1,
		},
		{
			name: "spurious", reads: segDense + 20,
			arm: func(w *prefixWorld) {
				loads := 0
				inFirstSegment(w, func(op htm.HookOp) htm.Directive {
					if op == htm.HookLoad {
						if loads++; loads == 5 {
							return htm.DirSpurious // an interrupt, say
						}
					}
					return htm.DirNone
				})
			},
			segments: 1, spurious: 1, softwareReads: 21,
			budget: segDense,
		},
		{
			name: "conflict", reads: segDense + 20,
			kill: func(w *prefixWorld) {
				// A foreign store to a word the live segment has read.
				a := w.segmentAddr(segDense + 19)
				w.m.StorePlain(a, w.m.LoadPlain(a)+1)
			},
			segments: 2, segmentCommits: 1, conflict: 1,
			budget: segDense,
		},
		{
			name: "clock moved before the segment began", reads: segDense + 20,
			arm: func(w *prefixWorld) {
				// A writer commits between the prefix's commit and the
				// segment's begin.
				inFirstSegment(w, func(op htm.HookOp) htm.Directive {
					if op == htm.HookBegin {
						clock := core.ClockAddr(w.sys)
						w.m.StorePlain(clock, w.m.LoadPlain(clock)+2)
					}
					return htm.DirNone
				})
			},
			segments: 2, segmentCommits: 1,
			budget: segDense,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newSegmentWorld(t)
			if tc.arm != nil {
				tc.arm(w)
			}
			err := w.auditAt(tc.reads, w.segmentAddr, func() error {
				if tc.kill != nil {
					tc.kill(w)
				}
				return nil
			})
			w.dev.SetHook(nil)
			if err != nil {
				t.Fatal(err)
			}
			s := w.th.Stats()
			if s.PrefixAttempts != 2 || s.PrefixCommits != 2 || s.SlowPathRestarts != 1 {
				t.Errorf("%d prefix attempts, %d commits, %d restarts; want 2, 2, 1 (a dead segment never bans the prefix)",
					s.PrefixAttempts, s.PrefixCommits, s.SlowPathRestarts)
			}
			if s.SegmentAttempts != tc.segments || s.SegmentCommits != tc.segmentCommits {
				t.Errorf("%d segments begun, %d committed, want %d and %d",
					s.SegmentAttempts, s.SegmentCommits, tc.segments, tc.segmentCommits)
			}
			if s.HTMCapacityAborts != tc.capacity || s.HTMSpuriousAborts != tc.spurious || s.HTMConflictAborts != tc.conflict {
				t.Errorf("%d capacity, %d spurious, %d conflict aborts, want %d, %d, %d",
					s.HTMCapacityAborts, s.HTMSpuriousAborts, s.HTMConflictAborts, tc.capacity, tc.spurious, tc.conflict)
			}
			if s.SoftwareReads != tc.softwareReads {
				t.Errorf("%d software reads, want %d", s.SoftwareReads, tc.softwareReads)
			}
			if got := core.PrefixBudget(w.th); got != tc.budget {
				t.Errorf("budget %d → %d, want %d", segDense, got, tc.budget)
			}
		})
	}
}

// TestFirstWriteCommitsLiveSegment: a live segment holds the clock in its
// read set, so the first write must commit it before handleFirstWrite locks
// the clock — a version that does not aborts itself on every attempt.
func TestFirstWriteCommitsLiveSegment(t *testing.T) {
	w := newSegmentWorld(t)
	if err := w.auditAt(segDense+20, w.segmentAddr, nil); err != nil {
		t.Fatal(err)
	}
	s := w.th.Stats()
	if s.SlowPathRestarts != 0 || s.HTMAborts() != 0 {
		t.Fatalf("%d restarts, %d hardware aborts, want none", s.SlowPathRestarts, s.HTMAborts())
	}
	// The read that met the prefix's budget and the 20 after it.
	if s.SegmentCommits != 1 || s.SegmentReads != 21 || s.PostfixCommits != 1 {
		t.Errorf("%d segments committed with %d reads, %d postfixes, want 1 with 21, and 1",
			s.SegmentCommits, s.SegmentReads, s.PostfixCommits)
	}
}

// TestReadOnlyRunEndsInsideSegment: with no write to end it, the segment
// live at the end of the callback is committed by the commit point.
func TestReadOnlyRunEndsInsideSegment(t *testing.T) {
	w := newSegmentWorld(t)
	if err := w.th.RunReadOnly(func(tx tm.Tx) error {
		for i := 0; i < segDense+20; i++ {
			tx.Load(w.segmentAddr(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := w.th.Stats()
	if s.SegmentAttempts != 1 || s.SegmentCommits != 1 || s.SegmentReads != 21 || s.SoftwareReads != 0 {
		t.Errorf("%d segments begun, %d committed with %d reads, %d software reads; want 1, 1 with 21, 0",
			s.SegmentAttempts, s.SegmentCommits, s.SegmentReads, s.SoftwareReads)
	}
	if s.ReadOnlyCommits != 1 || s.SlowPathCommits != 1 {
		t.Errorf("%d read-only commits, %d slow-path commits, want 1 and 1", s.ReadOnlyCommits, s.SlowPathCommits)
	}
	// The hardware context is free again: the next transaction begins on it.
	w.mustAudit(t, 8, 8)
}
