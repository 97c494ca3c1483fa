// Package core implements Reduced Hardware NOrec (RH NOrec), the paper's
// contribution (Matveev & Shavit, ASPLOS '15, Algorithms 1–3): a hybrid TM
// whose fast path is a pure uninstrumented hardware transaction that touches
// the global clock only at its commit point, and whose software slow path is
// a *mixed* path strengthened by two short hardware transactions:
//
//   - The HTM prefix executes the largest possible run of initial reads
//     speculatively, deferring the read of the global clock to the prefix's
//     commit point. This shrinks the window in which a concurrent writer
//     commit forces a slow-path restart. Its length adapts to the hardware
//     abort feedback at runtime, by cause: a capacity abort sets the next
//     budget just under the reads the dead prefix counted, a conflict
//     halves it, an explicit abort leaves it alone (adaptPrefixAfterAbort).
//   - The HTM postfix encapsulates all of the slow path's writes in one
//     hardware transaction, so concurrent fast paths can never observe a
//     partial slow-path write set — which is what lets the fast path read
//     the clock at the end instead of the beginning without losing opacity
//     (Figure 2 of the paper).
//
// Beyond the paper: a prefix that committed because it met its read budget
// is followed by a chain of read segments — read-only hardware transactions
// that each load the clock first, restart if it has left the prefix's
// snapshot, and serve up to one budget of reads uninstrumented — until the
// first write or the commit (startSegment). The clock in a segment's read
// set is the per-read validation of Algorithm 2 paid once per segment: any
// writer that commits meanwhile moves it and kills the segment before it
// returns another value. So a transaction that does not fit the hardware
// still reads almost nothing in software, while one whose prefix did not
// run, died, or ended at a first write reads exactly as the paper has it.
//
// If either small transaction fails, the algorithm reverts to the Hybrid
// NOrec behaviour for that transaction: the prefix is replaced by reading
// the clock at the start and validating it on every read, and the postfix is
// replaced by setting the global HTM lock (aborting all fast paths) and
// writing in software. A serial lock provides the starvation escape of
// §3.3. The eager Hybrid NOrec the paper measures RH NOrec against is
// therefore this code with both small transactions off, and that is how it
// is built: NewHybridNOrec.
//
// One deliberate deviation from the C implementation: when the HTM postfix
// aborts mid-execution, real hardware rewinds registers to the XBEGIN
// checkpoint inside handle_first_write and resumes there in software. Go
// cannot checkpoint mid-function, so this implementation restarts the whole
// attempt with the postfix disabled for the remainder of the transaction.
// The committed histories are identical (nothing the failed postfix did was
// visible, and the clock lock is released before the retry); the only
// difference is a re-execution of the read prefix, which the statistics
// report as an extra slow-path restart. A read segment that dies restarts
// the attempt the same way.
package core

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/hynorec"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// XABORT payloads used by the mixed slow path's small transactions: the
// canonical htm.Arg* codes, so the observability taxonomy classifies our
// explicit aborts.
const (
	abortHTMLockTaken = htm.ArgHTMLockTaken
	abortClockLocked  = htm.ArgClockLocked
)

// System is an RH NOrec TM over one shared memory — or, from
// NewHybridNOrec, the Hybrid NOrec it extends.
type System struct {
	tm.SystemBase

	// g holds the clock, the global HTM lock, the fallback count and the
	// serial lock — the words, and with them the whole hardware fast path
	// (Algorithm 1, hynorec.FastPath), RH NOrec shares with Hybrid NOrec.
	g hynorec.Globals
}

// New creates an RH NOrec system. dev must speculate over m; the zero
// policy is the paper's (§3.3–§3.4).
func New(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	return newSystem("rh-norec", m, dev, policy)
}

// NewHybridNOrec creates the eager Hybrid NOrec of Dalessandro et al. that
// the paper benchmarks as "HY-NOrec" (§3.1): Algorithm 1's fast path and
// Algorithm 2's slow path with neither the HTM prefix nor the HTM postfix,
// so every slow-path attempt reads the clock at its start and its first
// write takes the global HTM lock.
func NewHybridNOrec(m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	policy.DisablePrefix, policy.DisablePostfix = true, true
	return newSystem("hy-norec", m, dev, policy)
}

func newSystem(name string, m *mem.Memory, dev *htm.Device, policy tm.RetryPolicy) *System {
	return &System{SystemBase: tm.NewHybridBase(name, m, dev, policy), g: hynorec.NewGlobals(m)}
}

// NewThread implements tm.System.
func (s *System) NewThread() tm.Thread {
	t := &thread{ThreadBase: s.NewThreadBase()}
	t.expectedLen = initialPrefixLength
	t.fast = hynorec.FastPath{Globals: s.g, Base: &t.ThreadBase}
	t.Clock = tm.NewClock(s.Memory(), s.g.Clock)
	t.Bind(t, &t.fast)
	t.SerialEscape(s.g.SerialLock)
	return t
}

// thread keeps the coordination words in its fast path.
type thread struct {
	tm.ThreadBase
	fast hynorec.FastPath

	// Mixed-slow-path attempt state. The clock snapshot and its lock live in
	// the base's Clock (held from the first write on), the software writes
	// in its Log, stored in place on the full-software path.
	prefixActive       bool
	postfixActive      bool
	fullSoftware       bool // we set the global HTM lock and write in software
	fallbackRegistered bool // this Run is counted in num_of_fallbacks
	prefixBanned       bool // §3.4: one prefix try per transaction
	postfixBanned      bool // §3.4: one postfix try per transaction
	segmentsBanned     bool // the hardware refused a read segment: none for the rest of the transaction

	// Prefix-length adaptation (§2.4): expectedLen is the reads budget the
	// next prefix will attempt, resized by what kills a prefix
	// (adaptPrefixAfterAbort) and grown back a sixteenth at a time by
	// prefixes it cut short (adaptPrefixAfterSuccess). capacityPoint is the
	// budget the last capacity abort left (0 before the first): growing to
	// it takes short streaks, probing past it a long one.
	expectedLen   int
	capacityPoint int
	prefixReads   int
	maxReads      int
	prefixStreak  int
	// prefixLimited: this attempt's prefix committed because it met maxReads.
	// Until the first write, the reads after it run in read segments.
	prefixLimited bool
	segmentActive bool
	segmentReads  int

	// Observability phase anchors (obs.Recorder.Start results; 0 when
	// observability is off).
	prefixStart  int64
	postfixStart int64
}

// BeginSlow starts one try of the mixed slow path (Algorithms 2 and 3):
// the HTM prefix when it is usable; on no-go, the original (Algorithm 2)
// software start.
func (t *thread) BeginSlow(int) (tm.Tx, bool) {
	t.prefixActive = false
	t.prefixLimited = false
	t.postfixActive = false
	t.fullSoftware = false
	if t.prefixUsable() {
		t.startPrefix()
	} else {
		t.softwareStart()
	}
	return mixedTx{t}, false
}

// EndSlow leaves the mixed slow path: the fallback registration and the
// §3.4 single-try bans last one Run.
func (t *thread) EndSlow() {
	if t.fallbackRegistered {
		t.M.SubPlain(t.fast.Fallbacks, 1)
		t.fallbackRegistered = false
	}
	t.prefixBanned = false
	t.postfixBanned = false
	t.segmentsBanned = false
}

func (t *thread) prefixUsable() bool {
	return !t.Engine.Policy().DisablePrefix && !t.prefixBanned && t.expectedLen >= minPrefixLength
}

// startPrefix is start_rh_htm_prefix (Algorithm 3 lines 9–26).
func (t *thread) startPrefix() {
	t.St.PrefixAttempts++
	t.prefixStart = t.St.Obs.Start()
	t.HTM().Begin()
	t.prefixActive = true
	if t.HTM().Load(t.fast.HTMLock) != 0 {
		t.HTM().Abort(abortHTMLockTaken)
	}
	t.maxReads = t.expectedLen
	t.prefixReads = 0
}

// softwareStart is the original mixed_slow_path_start (Algorithm 2 lines
// 1–8): register the fallback and snapshot the clock.
func (t *thread) softwareStart() {
	if !t.fallbackRegistered {
		t.M.AddPlain(t.fast.Fallbacks, 1)
		t.fallbackRegistered = true
	}
	t.Clock.Snapshot()
}

// commitPrefix is commit_rh_htm_prefix (Algorithm 3 lines 47–56): register
// the fallback and read the clock *inside* the hardware transaction, so
// both become visible atomically with everything the prefix read.
func (t *thread) commitPrefix() {
	if !t.fallbackRegistered {
		f := t.HTM().Load(t.fast.Fallbacks)
		t.HTM().Store(t.fast.Fallbacks, f+1)
	}
	v := t.HTM().Load(t.fast.Clock)
	if v&1 != 0 {
		t.HTM().Abort(abortClockLocked)
	}
	t.HTM().Commit() // may abort: the whole attempt restarts
	t.fallbackRegistered = true
	t.Clock.Adopt(v)
	t.prefixDone()
}

// prefixDone accounts a prefix that has just committed and lets its budget
// grow.
func (t *thread) prefixDone() {
	t.prefixActive = false
	st := &t.St
	st.PrefixCommits++
	st.PrefixReads += uint64(t.prefixReads)
	if t.prefixLimited {
		st.PrefixReads-- // the read that met the budget runs after the prefix
	}
	st.Obs.RecordSince(obs.PhasePrefix, t.prefixStart)
	t.adaptPrefixAfterSuccess()
}

// startSegment opens a read segment: a hardware transaction that subscribes
// to the clock before it reads anything else. This thread has been a
// registered fallback since the prefix committed, so every writer that
// commits from then on moves the clock — a fast path bumps it at its commit
// point, a slow path locks it at its first write — and with the clock in the
// read set that kills the segment before it returns another value. Every
// value a segment returns was therefore current while the clock read the
// snapshot the prefix committed at (Clock.Time). The check has to come
// first: at the segment's end it would let the callback run on reads from
// two snapshots.
func (t *thread) startSegment() {
	t.St.SegmentAttempts++
	t.HTM().Begin()
	t.segmentActive = true
	t.segmentReads = 0
	if t.HTM().Load(t.fast.Clock) != t.Clock.Time() {
		tm.Restart() // a writer committed since the last segment, or the prefix
	}
}

// commitSegment ends the live read segment. It runs when the segment has
// served one budget of reads, and before anything that writes the clock
// itself: the first write's CAS and the commit would abort a segment that
// still holds the clock in its read set.
func (t *thread) commitSegment() {
	t.HTM().Commit() // may abort: the whole attempt restarts
	t.segmentActive = false
	t.St.SegmentCommits++
	t.St.SegmentReads += uint64(t.segmentReads)
}

// The prefix budget's bounds (§2.4): a new thread's first prefix attempts
// initialPrefixLength reads, growth never passes it, and cuts never take
// the budget below minPrefixLength, under which no prefix is attempted.
const (
	initialPrefixLength = 4096
	minPrefixLength     = 4
)

// Streaks of committed prefixes the budget waits for before it grows one
// step: prefixGrowStreak while it is below anything the hardware has
// refused, prefixProbeStreak to probe past the last observed capacity point
// — long, because that probe's failure costs a whole transaction's reads in
// software (§3.4 bans the prefix for the rest of the Run), and a stable
// over-capacity workload would otherwise pay it every few transactions.
const (
	prefixGrowStreak  = 4
	prefixProbeStreak = 64
)

// adaptPrefixAfterSuccess grows the prefix budget after sustained
// successful prefixes that were cut short by it (§2.4). Growth is a
// sixteenth of the budget per step, so it approaches a capacity point it
// has not seen yet instead of doubling past it.
func (t *thread) adaptPrefixAfterSuccess() {
	t.prefixStreak++
	if !t.prefixLimited || t.expectedLen >= initialPrefixLength {
		return
	}
	need := prefixGrowStreak
	if t.capacityPoint != 0 && t.expectedLen >= t.capacityPoint {
		need = prefixProbeStreak
	}
	if t.prefixStreak < need {
		return
	}
	t.prefixStreak = 0
	t.expectedLen = min(t.expectedLen+t.expectedLen/16+1, initialPrefixLength)
}

// adaptPrefixAfterAbort resizes the prefix budget after a prefix, or a read
// segment running at the same budget, died of verdict after counting reads
// loads (§2.4: reduce the length until it commits with high probability), by
// what the death says about length:
//
//   - Capacity: reads is how many fit, the overflowing one included, so the
//     next budget goes an eighth under that count. This is strictly below
//     the old budget — reads never exceeds it — also when the overflow came
//     from the up to two lines commitPrefix itself loads (Fallbacks, Clock),
//     which the eighth leaves room for.
//   - Conflict, spurious: the longer the prefix, the wider the window and
//     the more operations to hit; halve, as the paper does.
//   - Explicit (HTM lock or clock found taken), a Restart raised by the
//     callback, a user error (nil): length was not the cause; no change.
func (t *thread) adaptPrefixAfterAbort(verdict *htm.Abort, reads int) {
	if verdict == nil || tm.IsRestartVerdict(verdict) || verdict.Code == htm.Explicit {
		return
	}
	t.prefixStreak = 0
	if verdict.Code == htm.Capacity {
		t.expectedLen = max(reads-reads/8-1, minPrefixLength)
		t.capacityPoint = t.expectedLen
	} else {
		t.expectedLen = max(t.expectedLen/2, minPrefixLength)
	}
}

// handleFirstWrite is Algorithm 2 lines 25–31: lock the clock, then start
// the HTM postfix; if the postfix cannot run, take the global HTM lock and
// continue in software.
func (t *thread) handleFirstWrite() {
	t.Clock.Lock() // acquire_clock_lock (lines 47–56)
	if !t.Engine.Policy().DisablePostfix && !t.postfixBanned {
		t.St.PostfixAttempts++
		t.postfixStart = t.St.Obs.Start()
		t.HTM().Begin()
		t.postfixActive = true
		return
	}
	t.goFullSoftware()
}

// goFullSoftware is the Algorithm 2 lines 28–30 fallback: abort all
// hardware fast paths and perform the writes in software under the clock
// lock, with full NOrec opacity.
func (t *thread) goFullSoftware() {
	t.M.StorePlain(t.fast.HTMLock, 1)
	t.fullSoftware = true
}

// CommitSlow is mixed_slow_path_commit (Algorithm 3 lines 58–64 falling
// back to Algorithm 2 lines 58–72).
func (t *thread) CommitSlow() {
	if t.prefixActive {
		// The entire transaction fit in the HTM prefix: commit it. No
		// fallback was ever registered, no clock activity needed.
		t.HTM().Commit()
		t.prefixDone()
		return
	}
	if t.segmentActive {
		t.commitSegment()
	}
	if !t.Clock.Held() {
		return // read-only software slow path
	}
	if t.postfixActive {
		t.HTM().Commit() // publish all writes atomically
		t.postfixActive = false
		t.St.PostfixCommits++
		t.St.Obs.RecordSince(obs.PhasePostfix, t.postfixStart)
	}
	if t.fullSoftware {
		// The eager writes are already in memory but no reader can commit a
		// transaction that saw them until the clock releases below, so the
		// redo record sealed here still precedes every dependent commit's
		// record (tm.WriteLog's ordering rule).
		t.Log.Seal()
		t.M.StorePlain(t.fast.HTMLock, 0)
		t.fullSoftware = false
	}
	t.Clock.Release(true)
}

// AbortSlow releases every lock after a restart, hardware abort, or user
// abort; the skeleton has already rolled the eager writes back. A prefix or
// postfix that aborted has already discarded its buffer; one that is still
// live is cancelled here. verdict, what killed the attempt, steers the
// prefix-length adaptation.
func (t *thread) AbortSlow(verdict *htm.Abort) {
	if t.HTM().Active() {
		t.HTM().Cancel()
	}
	if t.prefixActive {
		// A failed prefix: ban it for this transaction and resize the
		// budget (§3.4 single-try policy + §2.4 adaptation).
		t.prefixActive = false
		t.prefixBanned = true
		t.adaptPrefixAfterAbort(verdict, t.prefixReads)
	}
	if t.segmentActive {
		// A dead read segment. A conflict, like the Restart at its start, is
		// the software phase's validation restart in hardware: the clock
		// moved, software reads would have restarted too, and the retry
		// chains again. A capacity or spurious abort is the hardware's own
		// refusal, which software reads do not suffer: the retry reads in
		// software after its prefix (§3.4's single try), and a capacity
		// abort resizes the budget as it does for the prefix. A spurious one
		// does not: a death restarts the whole attempt, so what it scales
		// with is the reads of the whole chain, not of one segment.
		t.segmentActive = false
		if verdict != nil {
			switch verdict.Code {
			case htm.Capacity:
				t.segmentsBanned = true
				t.adaptPrefixAfterAbort(verdict, t.segmentReads)
			case htm.Spurious:
				t.segmentsBanned = true
			}
		}
	}
	if t.postfixActive {
		// A failed postfix: revert to the Hybrid NOrec software writes on
		// the retry (see the package comment for the checkpoint
		// deviation).
		t.postfixActive = false
		t.postfixBanned = true
	}
	// Only a full-software path stores in place. The skeleton has restored
	// memory, but a software reader may have loaded an eager write under
	// the locked clock, so the release advances the clock to send it back
	// to validate. A dead postfix published nothing: release unadvanced.
	published := t.fullSoftware
	if t.fullSoftware {
		t.M.StorePlain(t.fast.HTMLock, 0)
		t.fullSoftware = false
	}
	t.Clock.Release(published)
}

// mixedTx is the mixed slow path view: reads route through the HTM prefix,
// a read segment, plain validated software loads, or the HTM postfix,
// depending on phase (Algorithm 3 mixed_slow_path_read/write).
type mixedTx struct{ t *thread }

func (v mixedTx) Load(a mem.Addr) uint64 {
	t := v.t
	if t.prefixActive {
		t.prefixReads++
		if t.prefixReads < t.maxReads {
			return t.HTM().Load(a)
		}
		t.prefixLimited = true
		t.commitPrefix()
		// Fall through: this read opens the first read segment.
	}
	if t.postfixActive {
		return t.HTM().Load(a)
	}
	if t.prefixLimited && !t.segmentsBanned && !t.Clock.Held() {
		if !t.segmentActive {
			t.startSegment()
		}
		t.segmentReads++
		val := t.HTM().Load(a)
		if t.segmentReads == t.maxReads {
			t.commitSegment()
		}
		return val
	}
	t.InstrumentedAccess()
	t.St.SoftwareReads++
	return t.Clock.Load(a)
}

func (v mixedTx) Store(a mem.Addr, val uint64) {
	t := v.t
	if t.ReadOnly {
		panic(tm.ErrStoreInReadOnly)
	}
	if t.prefixActive {
		t.commitPrefix() // Algorithm 3 lines 40–45: first write ends the prefix
	}
	if t.segmentActive {
		t.commitSegment() // or handleFirstWrite's clock CAS would abort it
	}
	if !t.Clock.Held() {
		t.handleFirstWrite()
	}
	if t.postfixActive {
		t.HTM().Store(a, val)
		return
	}
	t.InstrumentedAccess()
	t.Log.StoreEager(a, val)
}

func (v mixedTx) Alloc(n int) mem.Addr   { return v.t.TxAlloc(n) }
func (v mixedTx) Free(a mem.Addr, n int) { v.t.TxFree(a, n) }
