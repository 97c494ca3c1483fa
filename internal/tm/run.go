package tm

import (
	"runtime"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
)

// This file is the transaction skeleton: the one copy of the lifecycle the
// paper states once (§3.3–§3.4) and every driver shares — flat nesting, the
// reclamation epoch, phase stamps, the hardware retry loop with its give-up
// rule, the panic-to-verdict wrappers, commit/abort accounting, the
// software restart loop and the serial-lock starvation escape. A driver
// owns only its protocol: where an attempt begins and subscribes, what Load
// and Store do, the commit point, and how a dead attempt is discarded. It
// hands that to the skeleton as a Software half and, when it has a hardware
// fast path, a Hardware half (DESIGN.md §2 "Driver skeleton" lists which
// hooks each driver fills and the paper lines they map to).
//
// The hooks are methods of the driver's thread bound once at construction,
// not per-Run closures, so a steady-state transaction allocates nothing.

// Software is the software (or mixed) path of a driver: what runs when no
// hardware fast path exists, was admitted, or survived its retry budget.
type Software interface {
	// BeginSlow opens the try-th (1-based) software attempt of the current
	// Run — per-Run registration on the first try, the snapshot, any
	// backoff owed to the restart that preceded it — and returns the view
	// the callback runs against. global reports that the attempt holds a
	// lock of the driver's own that excludes every other transaction (Lock
	// Elision's fallback, the serial baseline): its commit is a serial
	// commit, not a slow-path one.
	BeginSlow(try int) (view Tx, global bool)
	// CommitSlow is the commit point. It may Restart or die on a hardware
	// abort like any other step of the attempt; both re-run the attempt.
	// A driver that stored in place seals the write log here, immediately
	// before the store that releases its lock (WriteLog.Seal).
	CommitSlow()
	// AbortSlow discards the software attempt in flight after a Restart, a
	// hardware abort, a user error or a foreign panic: cancel live
	// speculation, release the attempt's locks. The skeleton has already
	// rolled the write log back, so memory holds the attempt's pre-image
	// when the locks drop; the allocation log is the skeleton's too.
	// verdict says what killed the attempt: the hardware abort itself, the
	// restart verdict (IsRestartVerdict) for a Restart, nil for a user
	// error or a foreign panic — so a driver that adapts to abort causes
	// (RH NOrec's prefix length) need not re-read device state.
	AbortSlow(verdict *htm.Abort)
	// EndSlow runs once as the Run leaves the software path, however it
	// leaves: drop what BeginSlow registered for the whole Run.
	EndSlow()
}

// Hardware is the pure-hardware fast path of a hybrid driver.
type Hardware interface {
	// FastReady runs before every hardware try. prev is the abort that
	// killed this Run's previous try (nil before the first): drivers wait
	// out a lock the abort named, or one whose holder dooms the
	// speculation from its first instruction. Returning false diverts the
	// Run to the software path without the fallback being charged to the
	// fast path (PhasedTM while the system is in its software phase).
	FastReady(prev *htm.Abort) bool
	// BeginFast starts the speculation, subscribes to whatever the
	// protocol's software side uses to abort it, and returns the
	// uninstrumented view.
	BeginFast() Tx
	// CommitFast is the hardware commit point, protocol metadata included.
	CommitFast()
	// AbortFast discards the hardware try in flight after a user error, a
	// Restart or a foreign panic (a hardware abort has already discarded
	// itself; the call is then a no-op).
	AbortFast()
}

// Bind installs the driver's protocol hooks; hw is nil for a pure-software
// driver. Called once, at thread construction.
func (b *ThreadBase) Bind(sw Software, hw Hardware) { b.sw, b.hw = sw, hw }

// SerialEscape arms the starvation escape of §3.3: a Run whose software
// attempts have restarted `after` times takes the lock word at lock before
// the next one and keeps it until the Run ends. Drivers without a serial
// lock never call it.
func (b *ThreadBase) SerialEscape(lock mem.Addr, after int) {
	b.serialLock, b.serialAfter = lock, after
}

// AcquireLock spins, yielding, until it flips the lock word at a from 0 to 1.
func (b *ThreadBase) AcquireLock(a mem.Addr) {
	for !b.M.CASPlain(a, 0, 1) {
		runtime.Gosched()
	}
}

// SpinOutLock is the FastReady of the NOrec hybrids, whose fast paths abort
// explicitly on three lock words: when prev names one of them (the canonical
// htm.Arg* payloads) it yields until that word reads free — the global HTM
// lock and the serial lock nonzero-is-held, the clock by its lock bit — so
// the retry does not start straight into the same abort. Anything else
// returns at once.
func (b *ThreadBase) SpinOutLock(prev *htm.Abort, htmLock, clock mem.Addr) {
	if prev == nil || prev.Code != htm.Explicit {
		return
	}
	word, mask := mem.Nil, ^uint64(0)
	switch prev.Arg {
	case htm.ArgHTMLockTaken:
		word = htmLock
	case htm.ArgClockLocked:
		word, mask = clock, 1
	case htm.ArgSerialTaken:
		word = b.serialLock
	default:
		return
	}
	for b.M.LoadPlain(word)&mask != 0 {
		runtime.Gosched()
	}
}

// restartAbort is the verdict of an attempt that ended in a software
// Restart: on the fast path it is judged like the conflict it stands for
// (an explicit Restart from application code included); on the software
// path its identity tells a validation restart from a hardware abort. It is
// shared and never written.
var restartAbort = &htm.Abort{Code: htm.Conflict}

// IsRestartVerdict reports whether the verdict handed to AbortSlow stands
// for a software Restart rather than a hardware abort.
func IsRestartVerdict(ab *htm.Abort) bool { return ab == restartAbort }

// run executes fn as one transaction, to commit or to the error fn returns:
// the body of Run and RunReadOnly.
func (b *ThreadBase) run(fn func(Tx) error, readOnly bool) error {
	if b.inTxn {
		// Flat nesting: a re-entrant Run executes inline in the enclosing
		// transaction; its error is the enclosing callback's to act on.
		return fn(b.curTx)
	}
	b.BeginTxn()
	defer b.EndTxn()
	b.ReadOnly = readOnly
	o := b.St.Obs
	start := o.Start()
	b.ObsEvent(obs.EventBegin, obs.PathNone)
	err := b.runPaths(fn)
	o.RecordSince(obs.PhaseAttempt, start)
	return err
}

// runPaths is the retry policy of §3.3: hardware tries until one commits or
// the engine's give-up rule ends them, then the software path.
func (b *ThreadBase) runPaths(fn func(Tx) error) error {
	if b.hw == nil {
		return b.slowRun(fn, false)
	}
	o := b.St.Obs
	fellBack := true
	if !b.Engine.policy.DisableFast {
		var ab *htm.Abort
		for retries := 1; ; retries++ {
			if !b.hw.FastReady(ab) {
				fellBack = false
				break
			}
			fastStart := o.Start()
			var err error
			err, ab = b.fastAttempt(fn)
			o.RecordSince(obs.PhaseFast, fastStart)
			if ab == nil {
				if err == nil {
					b.ObsEvent(obs.EventCommit, obs.PathFast)
				}
				return err
			}
			b.RecordHTMAbort(ab, retries)
			if b.Engine.giveUp(ab, retries) {
				break
			}
		}
	}
	return b.slowRun(fn, fellBack)
}

// callUser runs the callback with the flat-nesting state set; failed clears
// it when the callback does not return.
func (b *ThreadBase) callUser(fn func(Tx) error, view Tx) error {
	b.inTxn, b.curTx = true, view
	err := fn(view)
	b.inTxn, b.curTx = false, nil
	return err
}

// discard drops the attempt in flight on the given path: eager software
// stores first (the driver's locks still hide them), then the driver's
// half, then the allocation log. verdict is what killed the attempt, nil
// for a user error or a foreign panic.
func (b *ThreadBase) discard(fast bool, verdict *htm.Abort) {
	if fast {
		b.hw.AbortFast()
	} else {
		b.Log.Rollback()
		b.sw.AbortSlow(verdict)
	}
	b.AbortCleanup()
}

// committed accounts one commit on the given path counter.
func (b *ThreadBase) committed(path *uint64) {
	b.CommitCleanup()
	b.St.Commits++
	*path++
	if b.ReadOnly {
		b.St.ReadOnlyCommits++
	}
}

// failed turns the panic that ended an attempt into its verdict — the
// hardware abort itself, or restartAbort for a Restart — and discards the
// attempt under it. Any other panic is the application's and is re-raised
// once the attempt is gone.
func (b *ThreadBase) failed(r any, fast bool) *htm.Abort {
	b.inTxn, b.curTx = false, nil
	ab, _ := htm.AsAbort(r)
	if ab == nil && IsRestart(r) {
		ab = restartAbort
	}
	b.discard(fast, ab)
	if ab == nil {
		panic(r)
	}
	return ab
}

// fastAttempt is one hardware try: (err, nil) when it finished — committed,
// or user-aborted with no effects — and (nil, abort) when it died.
func (b *ThreadBase) fastAttempt(fn func(Tx) error) (err error, ab *htm.Abort) {
	defer func() {
		if r := recover(); r != nil {
			err, ab = nil, b.failed(r, true)
		}
	}()
	view := b.hw.BeginFast()
	if uerr := b.callUser(fn, view); uerr != nil {
		b.discard(true, nil)
		b.St.UserAborts++
		return uerr, nil
	}
	b.hw.CommitFast()
	b.committed(&b.St.FastPathCommits)
	return nil, nil
}

// slowRun drives software attempts until one finishes, escalating to the
// serial lock when the escape is armed. fellBack says the Run surrendered
// (or was denied) the fast path, which counts it into the engine's
// slow-path occupancy; pure-software Runs and diverted ones do not.
func (b *ThreadBase) slowRun(fn func(Tx) error, fellBack bool) error {
	if fellBack {
		b.Engine.slowPath.Add(1)
		b.St.Fallbacks++
		b.ObsEvent(obs.EventFallback, obs.PathNone)
	}
	defer b.leaveSlow(fellBack)
	for restarts := 0; ; {
		if b.hw != nil {
			b.St.SlowPathStarts++
		}
		err, restarted := b.slowAttempt(fn, restarts+1)
		if !restarted {
			return err
		}
		restarts++
		if b.hw != nil {
			b.St.SlowPathRestarts++
		} else {
			b.St.STMRestarts++
		}
		if b.serialAfter > 0 && restarts >= b.serialAfter && !b.serialHeld {
			b.AcquireLock(b.serialLock)
			b.serialHeld = true
		}
	}
}

// leaveSlow closes the software path on every exit, foreign panics
// included.
func (b *ThreadBase) leaveSlow(fellBack bool) {
	if fellBack {
		b.Engine.slowPath.Add(-1)
	}
	b.sw.EndSlow()
	if b.serialHeld {
		b.M.StorePlain(b.serialLock, 0)
		b.serialHeld = false
	}
}

// slowAttempt is one software try; restarted asks for another. try is its
// 1-based ordinal, the retry coordinate of the abort taxonomy.
func (b *ThreadBase) slowAttempt(fn func(Tx) error, try int) (err error, restarted bool) {
	defer func() {
		if r := recover(); r != nil {
			if ab := b.failed(r, false); ab == restartAbort {
				b.RecordSTMRestart(try)
			} else {
				b.RecordHTMAbort(ab, try)
			}
			err, restarted = nil, true
		}
	}()
	o := b.St.Obs
	swStart := o.Start()
	b.Log.Reset()
	b.Clock.reset()
	view, global := b.sw.BeginSlow(try)
	serial, serialStart := global || b.serialHeld, swStart
	if global {
		serialStart = o.Start() // the wait for the driver's lock is not time under it
	}
	if uerr := b.callUser(fn, view); uerr != nil {
		b.discard(false, nil)
		b.St.UserAborts++
		if serial {
			o.RecordSince(obs.PhaseSerial, serialStart)
		}
		return uerr, false
	}
	wbStart := o.Start()
	b.sw.CommitSlow()
	// Phase samples describe committed attempts only, so both wait for the
	// commit point to hold.
	o.RecordPhase(obs.PhaseSoftware, uint64(wbStart-swStart))
	o.RecordSince(obs.PhaseWriteback, wbStart)
	if global {
		b.committed(&b.St.SerialCommits)
	} else {
		b.committed(&b.St.SlowPathCommits)
	}
	if serial {
		b.ObsEvent(obs.EventCommit, obs.PathSerial)
		o.RecordSince(obs.PhaseSerial, serialStart)
	} else {
		b.ObsEvent(obs.EventCommit, obs.PathSlow)
	}
	return nil, false
}
