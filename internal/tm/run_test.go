package tm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
)

// step scripts what one attempt of the fake protocol does once the callback
// is running.
type step uint8

const (
	commits   step = iota // the callback returns nil and the commit point holds
	conflict              // the hardware dies of a data conflict
	capacity              // the hardware dies of a capacity overflow
	spurious              // the hardware dies of an environmental abort
	lockTaken             // the protocol aborts explicitly on a held lock
	restarts              // the software path (or the application) calls Restart
	userErr               // the callback returns errScripted
	booms                 // the callback panics with a foreign value
	nests                 // the callback re-enters Run, then returns nil
)

var errScripted = errors.New("scripted user error")

type fakeTx struct{}

func (fakeTx) Load(mem.Addr) uint64   { return 0 }
func (fakeTx) Store(mem.Addr, uint64) {}
func (fakeTx) Alloc(int) mem.Addr     { return mem.Nil }
func (fakeTx) Free(mem.Addr, int)     {}

// fakeDriver is a scripted protocol: every hook logs itself, and the
// callback plays the next step of the script of the path it is on.
type fakeDriver struct {
	b          ThreadBase
	fast, slow []step
	divertAt   int // FastReady answers false before this (0-based) hardware try; -1 never
	global     bool
	lock       mem.Addr
	onFast     bool
	fastTries  int
	slowLoad   int // the engine's slow-path occupancy seen from inside the last software try
	log        []string
}

func (f *fakeDriver) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakeDriver) FastReady(prev *htm.Abort) bool {
	if f.fastTries == f.divertAt {
		f.logf("divert")
		return false
	}
	if prev != nil {
		f.logf("ready(%v)", prev.Code)
	}
	return true
}
func (f *fakeDriver) BeginFast() Tx {
	f.fastTries++
	f.onFast = true
	f.logf("beginF")
	return fakeTx{}
}
func (f *fakeDriver) CommitFast() { f.logf("commitF") }
func (f *fakeDriver) AbortFast()  { f.logf("abortF") }
func (f *fakeDriver) BeginSlow(try int) (Tx, bool) {
	f.onFast = false
	held := ""
	if f.lock != mem.Nil && f.b.M.LoadPlain(f.lock) != 0 {
		held = "+serial"
	}
	f.logf("beginS%d%s", try, held)
	if f.b.Engine != nil {
		f.slowLoad = f.b.Engine.SlowPathLoad()
	}
	return fakeTx{}, f.global
}
func (f *fakeDriver) CommitSlow() { f.logf("commitS") }

// AbortSlow logs the verdict the skeleton classified the dead attempt as.
func (f *fakeDriver) AbortSlow(verdict *htm.Abort) {
	switch {
	case verdict == nil:
		f.logf("abortS(nil)")
	case IsRestartVerdict(verdict):
		f.logf("abortS(restart)")
	default:
		f.logf("abortS(%v)", verdict.Code)
	}
}
func (f *fakeDriver) EndSlow() { f.logf("endS") }

func (f *fakeDriver) body(tx Tx) error {
	script := &f.slow
	if f.onFast {
		script = &f.fast
	}
	st := (*script)[0]
	*script = (*script)[1:]
	switch st {
	case conflict:
		panic(&htm.Abort{Code: htm.Conflict})
	case capacity:
		panic(&htm.Abort{Code: htm.Capacity})
	case spurious:
		panic(&htm.Abort{Code: htm.Spurious})
	case lockTaken:
		panic(&htm.Abort{Code: htm.Explicit, Arg: htm.ArgHTMLockTaken})
	case restarts:
		Restart()
	case userErr:
		return errScripted
	case booms:
		panic("boom")
	case nests:
		return f.b.Run(func(inner Tx) error {
			if inner != tx {
				return errors.New("nested Run got a different view")
			}
			f.logf("nested")
			return nil
		})
	}
	return nil
}

// TestSkeleton drives ThreadBase.Run against the scripted protocol: one row
// per lifecycle path — §3.3's retry decisions among them — checking the
// exact hook sequence, the exact counters, the engine's slow-path occupancy
// and that the serial lock is never left held.
func TestSkeleton(t *testing.T) {
	cases := []struct {
		name       string
		software   bool // bind no hardware half
		policy     RetryPolicy
		fast, slow []step
		divertAt   int
		global     bool
		readOnly   bool
		wantLog    string
		want       Stats
		wantErr    error
		wantPanic  bool
	}{
		{
			name: "fast commit", fast: []step{commits}, divertAt: -1, readOnly: true,
			wantLog: "beginF commitF",
			want:    Stats{Commits: 1, FastPathCommits: 1, ReadOnlyCommits: 1},
		},
		{
			name: "conflicts spend the budget, then fall back", policy: RetryPolicy{MaxHTMRetries: 2},
			fast: []step{conflict, conflict}, slow: []step{commits}, divertAt: -1,
			wantLog: "beginF abortF ready(conflict) beginF abortF beginS1 commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMConflictAborts: 2,
				SlowPathStarts: 1},
		},
		{
			name: "capacity gives up the fast path at once",
			fast: []step{capacity}, slow: []step{commits}, divertAt: -1,
			wantLog: "beginF abortF beginS1 commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMCapacityAborts: 1,
				SlowPathStarts: 1},
		},
		{
			name: "a spurious abort is never retried",
			fast: []step{spurious}, slow: []step{commits}, divertAt: -1,
			wantLog: "beginF abortF beginS1 commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMSpuriousAborts: 1,
				SlowPathStarts: 1},
		},
		{
			name: "explicit lock aborts retry until the budget is spent", policy: RetryPolicy{MaxHTMRetries: 3},
			fast: []step{lockTaken, lockTaken, lockTaken}, slow: []step{commits}, divertAt: -1,
			wantLog: "beginF abortF ready(explicit) beginF abortF ready(explicit) beginF abortF beginS1 commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMExplicitAborts: 3,
				SlowPathStarts: 1},
		},
		{
			name: "application Restart on the fast path is a conflict",
			fast: []step{restarts, commits}, divertAt: -1,
			wantLog: "beginF abortF ready(conflict) beginF commitF",
			want:    Stats{Commits: 1, FastPathCommits: 1, HTMConflictAborts: 1},
		},
		{
			name: "pre-retry hook diverts without charging a fallback",
			fast: []step{conflict}, slow: []step{commits}, divertAt: 1,
			wantLog: "beginF abortF divert beginS1 commitS endS",
			want:    Stats{Commits: 1, SlowPathCommits: 1, HTMConflictAborts: 1, SlowPathStarts: 1},
		},
		{
			name: "policy denies the fast path", policy: RetryPolicy{DisableFast: true},
			slow: []step{commits}, divertAt: -1,
			wantLog: "beginS1 commitS endS",
			want:    Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, SlowPathStarts: 1},
		},
		{
			name: "restarts escalate to the serial lock", policy: RetryPolicy{DisableFast: true, MaxSlowPathRestarts: 2},
			slow: []step{restarts, conflict, restarts, commits}, divertAt: -1,
			wantLog: "beginS1 abortS(restart) beginS2 abortS(conflict) beginS3+serial abortS(restart) beginS4+serial commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMConflictAborts: 1,
				SlowPathStarts: 4, SlowPathRestarts: 3},
		},
		{
			name: "a hardware death on the software path reaches AbortSlow as its own verdict", policy: RetryPolicy{DisableFast: true},
			slow: []step{capacity, commits}, divertAt: -1,
			wantLog: "beginS1 abortS(capacity) beginS2 commitS endS",
			want: Stats{Commits: 1, SlowPathCommits: 1, Fallbacks: 1, HTMCapacityAborts: 1,
				SlowPathStarts: 2, SlowPathRestarts: 1},
		},
		{
			name: "serial lock released on user error", policy: RetryPolicy{DisableFast: true, MaxSlowPathRestarts: 1},
			slow: []step{restarts, userErr}, divertAt: -1,
			wantLog: "beginS1 abortS(restart) beginS2+serial abortS(nil) endS",
			want:    Stats{UserAborts: 1, Fallbacks: 1, SlowPathStarts: 2, SlowPathRestarts: 1},
			wantErr: errScripted,
		},
		{
			name: "serial lock released on foreign panic", policy: RetryPolicy{DisableFast: true, MaxSlowPathRestarts: 1},
			slow: []step{restarts, booms}, divertAt: -1,
			wantLog:   "beginS1 abortS(restart) beginS2+serial abortS(nil) endS",
			want:      Stats{Fallbacks: 1, SlowPathStarts: 2, SlowPathRestarts: 1},
			wantPanic: true,
		},
		{
			name: "user error on the fast path", fast: []step{userErr}, divertAt: -1,
			wantLog: "beginF abortF",
			want:    Stats{UserAborts: 1},
			wantErr: errScripted,
		},
		{
			name: "foreign panic on the fast path", fast: []step{booms}, divertAt: -1,
			wantLog:   "beginF abortF",
			wantPanic: true,
		},
		{
			name: "pure-software driver restarts without a fast phase", software: true,
			slow: []step{restarts, restarts, commits}, divertAt: -1,
			wantLog: "beginS1 abortS(restart) beginS2 abortS(restart) beginS3 commitS endS",
			want:    Stats{Commits: 1, SlowPathCommits: 1, STMRestarts: 2},
		},
		{
			name: "global-lock slow path commits serially", software: true, global: true,
			slow: []step{commits}, divertAt: -1,
			wantLog: "beginS1 commitS endS",
			want:    Stats{Commits: 1, SerialCommits: 1},
		},
		{
			name: "nested Run flattens", fast: []step{nests}, divertAt: -1,
			wantLog: "beginF nested commitF",
			want:    Stats{Commits: 1, FastPathCommits: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mem.New(1 << 12)
			f := &fakeDriver{b: newThreadBase(m, NewReclaimer()), fast: tc.fast, slow: tc.slow,
				divertAt: tc.divertAt, global: tc.global}
			defer f.b.Close()
			if tc.software {
				f.b.Bind(f, nil) // and no engine, as in tl2 and serial
			} else {
				f.b.Engine = NewEngine(tc.policy)
				f.b.Bind(f, f)
				f.lock = f.b.Cache.Alloc(mem.LineWords)
				f.b.SerialEscape(f.lock, f.b.Engine.Policy().MaxSlowPathRestarts)
			}
			rec := obs.NewRecorder(obs.Config{})
			f.b.St.Obs = rec

			var err error
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				err = f.b.run(f.body, tc.readOnly)
				return false
			}()

			if panicked != tc.wantPanic {
				t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if got := strings.Join(f.log, " "); got != tc.wantLog {
				t.Errorf("hooks:\n got  %s\n want %s", got, tc.wantLog)
			}
			got := f.b.St
			got.Obs = nil
			if got != tc.want {
				t.Errorf("stats:\n got  %+v\n want %+v", got, tc.want)
			}
			if f.lock != mem.Nil && m.LoadPlain(f.lock) != 0 {
				t.Error("serial lock left held")
			}
			// A Run is on the engine's slow-path count exactly while it is on
			// the software path after a charged fallback.
			if f.slowLoad != int(tc.want.Fallbacks) {
				t.Errorf("slow-path occupancy inside the software path = %d, want %d", f.slowLoad, tc.want.Fallbacks)
			}
			if e := f.b.Engine; e != nil && e.SlowPathLoad() != 0 {
				t.Errorf("slow-path occupancy after Run = %d, want 0", e.SlowPathLoad())
			}
			if f.b.inTxn || f.b.Slot.state.Load() != 0 {
				t.Error("Run left the thread inside a transaction")
			}
			// One attempt sample per Run that returned, one fast sample per
			// hardware try, one software sample per software commit, and
			// every software restart in the taxonomy.
			wantAttempts := uint64(1)
			if tc.wantPanic {
				wantAttempts = 0
			}
			if n := rec.PhaseHist(obs.PhaseAttempt).Count(); n != wantAttempts {
				t.Errorf("attempt samples = %d, want %d", n, wantAttempts)
			}
			if n := rec.PhaseHist(obs.PhaseFast).Count(); !tc.wantPanic && n != uint64(len(tc.fast)) {
				t.Errorf("fast samples = %d, want %d", n, len(tc.fast))
			}
			soft := tc.want.SlowPathCommits + tc.want.SerialCommits
			if n := rec.PhaseHist(obs.PhaseSoftware).Count(); n != soft {
				t.Errorf("software samples = %d, want %d", n, soft)
			}
			var validations uint64
			for _, st := range tc.slow {
				if st == restarts {
					validations++
				}
			}
			if n := rec.AbortCount(obs.CauseSTMValidation); n != validations {
				t.Errorf("stm-validation aborts = %d, want %d", n, validations)
			}
		})
	}
}
