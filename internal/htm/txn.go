package htm

import (
	"math/bits"
	"runtime"

	"rhnorec/internal/mem"
)

// Txn is one thread's hardware-transaction context. It is reusable: Begin
// resets it for a fresh speculation. Methods must be called from the owning
// thread only.
//
// Load, Store, Commit and Abort unwind with a panic carrying *Abort when the
// transaction dies; the caller's attempt loop recovers it (this mirrors RTM
// transferring control to the XBEGIN checkpoint).
type Txn struct {
	d      *Device
	active bool

	// hook is the device hook as Begin read it (Device.SetHook's contract
	// keeps it fixed while the transaction runs).
	hook Hook

	// marks is the per-stripe watermark vector: for every stripe in the
	// read footprint, the even stripe-clock value the stripe's logged reads
	// are known to be valid at — all of them at one common snapshot
	// instant. It doubles as the validation filter: a stripe whose clock
	// still reads its watermark needs no re-checking (an unchanged even
	// stripe clock proves no store landed there), so a mutation only
	// triggers revalidation in transactions whose footprint intersects its
	// stripe. Successful sweeps advance the watermarks.
	marks markSet

	// gate is the memory's commit ticket as sampled before the instant the
	// read log was last proved consistent (Begin, or the start of the last
	// clean sweepReads pass). While the ticket still reads gate, no publish
	// has closed a window since, and Load extends the snapshot to an unseen
	// stripe without sweeping (DESIGN.md §12.2).
	gate uint64

	// owned flags the stripes of the write footprint, set as each line's
	// first write lands; inside commitValidate they are exactly the stripes
	// CommitWrites holds.
	owned stripeBits

	// reads is the line log, named for the side validation walks: one
	// record per cache line touched. It value-logs every *distinct*
	// speculative read — duplicate loads are answered from it (an L1 hit on
	// real hardware) and are not re-logged, so validation is O(distinct
	// addresses) — and buffers every write in first-write order. Its read
	// and write line counts are the capacity accounting.
	reads lineLog

	// Per-transaction cached limits and probability thresholds (copied out
	// of the device config at Begin so the per-operation hot path never
	// chases the device pointer).
	readCap, writeCap int
	spuriousThresh    uint64

	// abortVal is the recycled panic payload of fail: aborts are part of the
	// steady-state hot path (every fallback starts with one), so they must
	// not allocate. Safe because an abort is fully handled by the recovering
	// attempt loop before the same thread can abort again.
	abortVal Abort

	rngState uint64
	// yieldIn counts speculative operations down to the next yield point.
	// It runs on across Begin: pacing belongs to the thread, not to one
	// transaction.
	yieldIn int
	closed  bool
}

// Begin starts a hardware transaction. The Txn must not already be active.
func (t *Txn) Begin() {
	if t.active {
		panic("htm: Begin inside an active transaction (no nesting in this simulator)")
	}
	t.active = true
	t.hook = t.d.hook
	// Lines opened, not words logged: a transaction that died reading the
	// first word of a fresh line left the line behind with nothing in it,
	// and it must not count toward this transaction's capacity.
	if t.reads.lineCount() > 0 {
		t.reads.reset()
	}
	t.owned = 0
	t.readCap, t.writeCap = t.d.effectiveCaps()
	if p := t.d.cfg.SpuriousAbortProb; p > 0 {
		t.spuriousThresh = uint64(p * (1 << 53))
	} else {
		t.spuriousThresh = 0
	}
	t.marks.reset()
	t.gate = t.d.m.Ticket()
	t.d.starts.Add(1)
	t.hookYield(HookBegin, mem.Nil, 0)
}

// Active reports whether a speculation is in progress.
func (t *Txn) Active() bool { return t.active }

// ReadLineCount reports the distinct cache lines currently in the read set.
func (t *Txn) ReadLineCount() int { return t.reads.readLines }

// WriteLineCount reports the distinct cache lines currently in the write set.
func (t *Txn) WriteLineCount() int { return t.reads.writeLines }

// inactive panics for op called with no transaction in progress; callers
// test t.active themselves, so the check inlines and only this call is out of
// line.
func inactive(op string) {
	panic("htm: " + op + " outside a transaction")
}

// fail aborts the transaction and unwinds.
func (t *Txn) fail(code Code, arg uint64) {
	t.active = false
	t.d.aborts[code].Add(1)
	if h := t.hook; h != nil {
		// Announce the abort so traces can label it with its taxonomy cell;
		// the directive is ignored — the transaction is already dead.
		h.Yield(HookAbort, mem.Nil, AbortInfo(code, arg))
	}
	t.abortVal = Abort{Code: code, Arg: arg}
	panic(&t.abortVal)
}

// nextRand is a xorshift64* step for the spurious-abort dice.
func (t *Txn) nextRand() uint64 {
	x := t.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// yieldPeriod makes every Nth speculative operation yield the processor.
// Real hardware threads interleave at instruction granularity; goroutines on
// few OS threads do not, which would hide exactly the transaction overlaps
// the paper measures. Yield points restore that interleaving. The software
// paths yield every 13th access (tm.yieldPeriod), a different prime, so the
// two paths do not pace in lock step. Under the explorer the Gosched is
// harmless: only the worker holding the baton is runnable.
const yieldPeriod = 7

// yield restarts the countdown and, while the device has another live
// context, gives up the processor, so that simulated hardware threads
// interleave mid-transaction even on few OS threads. A lone context has
// nothing to interleave with and runs on.
func (t *Txn) yield() {
	t.yieldIn = yieldPeriod
	if t.d.live.Load() > 1 {
		runtime.Gosched()
	}
}

// Close releases the context from the device's live count (idempotent). A
// Txn that is never closed keeps its peers pacing, which costs them speed
// and never correctness.
func (t *Txn) Close() {
	if !t.closed {
		t.closed = true
		t.d.live.Add(-1)
	}
}

// spurious rolls for an environmental abort against the 53-bit fixed-point
// threshold precomputed at Begin; callers skip it when the threshold is 0.
func (t *Txn) spurious() {
	if t.nextRand()>>11 < t.spuriousThresh {
		t.fail(Spurious, 0)
	}
}

// Load speculatively reads a word. It aborts (conflict) if the read set can
// no longer be validated, and (capacity) if the read set overflows.
//
// A duplicate load — an address already in the read log — is answered from
// the log without touching shared memory, like the L1 hit it would be on
// real hardware. The logged value is by construction the address's value at
// the snapshot the whole log is valid at, so returning it preserves
// opacity; if the location has since changed, the next validation (or the
// commit) aborts the transaction exactly as it would have in the seed
// protocol.
//
// A first read of a word runs the read loop below: it returns a's value at
// a snapshot the whole read log is valid at, extending the snapshot if a's
// stripe moved (NOrec-style incremental validation — this is what makes the
// simulated HTM opaque). A stripe whose clock still reads its watermark
// needs no validation at all, so mutations in stripes outside the footprint
// never perturb this transaction. Two outcomes end almost every load inside
// the loop: the stripe still reads its watermark, or this is a first read of
// the stripe while the ticket gate holds. Anything else — a watermarked
// stripe that moved, or a gate that did not hold — is settled out of line
// by settle.
func (t *Txn) Load(a mem.Addr) uint64 {
	if !t.active {
		inactive("Load")
	}
	if t.hook != nil {
		t.hookYield(HookLoad, a, 0)
	}
	if t.yieldIn--; t.yieldIn == 0 {
		t.yield()
	}
	if t.spuriousThresh != 0 {
		t.spurious()
	}
	rl := t.reads.open(mem.LineOf(a))
	w := uint(a) % mem.LineWords
	if rl.wrote&(1<<w) != 0 {
		return t.reads.entries[rl.pos[w]].Value
	}
	if rl.have&(1<<w) != 0 {
		return rl.vals[w]
	}
	// rl stays valid across the loop: nothing opens a line in between.
	m := t.d.m
	s := m.StripeOf(a)
	var v uint64
	for {
		c0 := m.StripeClock(s)
		if c0&1 == 1 {
			runtime.Gosched() // a write-back is publishing into this stripe
			continue
		}
		v = m.LoadTorn(a)
		if m.StripeClock(s) != c0 {
			continue // raced with a mutation of this stripe
		}
		mark, seen := t.marks.get(s)
		if seen && mark == c0 {
			// The stripe is unchanged since the snapshot instant the whole
			// log is valid at, so v was a's value at that same instant:
			// returning it extends the log without any re-validation.
			break
		}
		if !seen && m.Ticket() == t.gate {
			// Ticket gate. Every publish retires its ticket after its last
			// store and before its first window closes. The ticket has not
			// moved since before the instant the log was last proved
			// consistent, so a store to a since that instant would belong
			// to a publish whose window on s is still open — and s read an
			// even, unchanged c0 around the load. Hence v was a's value at
			// that same instant, and a sweep would find nothing to do; c0
			// is s's watermark (nothing is logged there yet, so it needs no
			// proof). (Read-time extension only: a committing writer must
			// also see publishes still inside their windows, so
			// sweepReads(true) is never gated.)
			t.marks.set(s, c0)
			break
		}
		if t.settle(a, s, c0, seen) {
			break
		}
	}
	// The capacity check comes last, so a conflict met while reading the
	// first word of a new line still aborts as a conflict.
	if t.reads.log(rl, w, v) && t.reads.readLines > t.readCap {
		t.fail(Capacity, 0)
	}
	return v
}

// settle is Load's read loop when neither of its free outcomes applies: a's
// stripe s read an even, unchanged c0 around the load, but either s moved
// since its watermark (seen) or the ticket gate did not hold. It extends the
// snapshot to take the value and reports whether the value stands; false
// means the loop must take a fresh sample. It aborts on a conflict.
func (t *Txn) settle(a mem.Addr, s int, c0 uint64, seen bool) bool {
	if seen {
		// The stripe moved since its watermark, so its logged reads must be
		// re-proved current at c0 before the watermark may advance — the
		// sweep below would otherwise take the new mark at face value and
		// skip them.
		t.hookYield(HookValidate, a, 0)
		if !t.valueCheckStripe(s) {
			t.fail(Conflict, 0)
		}
		if t.d.m.StripeClock(s) != c0 {
			return false // the re-check itself was torn
		}
	}
	// Watermark s at c0 (for a first read of the stripe there is nothing
	// logged there yet, so c0 needs no proof), then sweep the whole
	// footprint to a fresh common instant. If s moves again during the
	// sweep, the value may predate the new instant — discard it and retry.
	t.marks.set(s, c0)
	if !t.sweepReads(false) {
		t.fail(Conflict, 0)
	}
	return t.d.m.StripeClock(s) == c0
}

// Validation pass/spin budgets for the commit path. While a committing
// writer validates, it holds its write stripes with their windows
// open; another committer may symmetrically be validating reads against
// those stripes while holding stripes *we* are validating against, so
// unbounded waiting could deadlock. A bounded wait followed by a conflict
// abort (the TL2 abort-on-locked rule) breaks the cycle; real best-effort
// HTM is free to abort in such windows too.
const (
	commitSpinBudget = 128
	commitPassBudget = 64
)

// valueCheckStripe re-checks every logged read that lives in stripe s by
// value. The caller supplies the stability argument (stripe seqlock
// protocol, or holding the stripe).
func (t *Txn) valueCheckStripe(s int) bool {
	if PlantedBugs.SkipValueRevalidation.Load() {
		return true
	}
	m := t.d.m
	for i := range t.reads.lines {
		rl := &t.reads.lines[i]
		base := mem.Addr(rl.line) * mem.LineWords
		if m.StripeOf(base) != s { // a line lies in one stripe
			continue
		}
		for have := rl.have; have != 0; have &= have - 1 {
			w := bits.TrailingZeros8(have)
			if m.LoadTorn(base+mem.Addr(w)) != rl.vals[w] {
				return false
			}
		}
	}
	return true
}

// sweepReads drives the read log to a single consistent snapshot instant:
// it passes over the footprint watermarks until one clean pass observes
// every stripe's clock equal to a watermark established before that pass
// began. Each watermark certifies the stripe's logged reads were current
// when it was set; an unchanged even clock at pass time certifies no store
// landed in the stripe since — so at the instant the clean pass began,
// every logged value was simultaneously current (opacity). A stripe whose
// clock moved is re-checked by value under its seqlock read protocol and
// its watermark advanced, which forces a further confirming pass.
//
// committing selects the writer-commit variant, called from inside
// mem.CommitWrites holding the write stripes, their windows open:
// owned stripes read odd by our own hand, so they are checked by value
// directly (stable — we hold the stripe and have published nothing), against
// the pre-open clock c-1; and waiting on other commits' windows is bounded
// (see commitSpinBudget) to break symmetric validation deadlocks. Owned
// stripes are frozen for the whole validation, so their checks need no
// confirming pass.
//
// Returns false on a value mismatch or a commit budget exhaustion; both are
// conflict aborts to the caller.
func (t *Txn) sweepReads(committing bool) bool {
	m := t.d.m
	if t.marks.empty() {
		return true
	}
	for pass := 0; ; pass++ {
		if committing && pass > commitPassBudget {
			return false
		}
		ticket := m.Ticket() // before the pass: what a clean one re-arms the gate with
		clean := true
		for b := t.marks.present; b != 0; b &= b - 1 {
			s := bits.TrailingZeros64(uint64(b))
			mark := t.marks.marks[s]
			c := m.StripeClock(s)
			if c == mark {
				continue
			}
			switch t.sweepMoved(s, mark, c, committing) {
			case sweepFailed:
				return false
			case sweepRetry:
				clean = false
			}
		}
		if clean {
			t.gate = ticket
			return true
		}
	}
}

// Verdicts of sweepMoved.
const (
	sweepFailed  = iota // conflict: the caller aborts
	sweepSettled        // the stripe's reads hold and its watermark needs no confirming pass
	sweepRetry          // watermark advanced, or the check was torn: another pass must follow
)

// sweepMoved handles one footprint stripe whose clock c no longer reads its
// watermark mark during a sweepReads pass.
func (t *Txn) sweepMoved(s int, mark, c uint64, committing bool) int {
	m := t.d.m
	if committing && t.owned.has(s) {
		// c is odd because our own window is open; c-1 is the value the
		// clock had when CommitWrites opened it. Equal to the watermark
		// means no store landed in s since the log was last valid
		// (restored windows return the clock unchanged).
		if c-1 == mark {
			return sweepSettled
		}
		if !t.valueCheckStripe(s) {
			return sweepFailed
		}
		t.marks.set(s, c-1)
		return sweepSettled
	}
	for spins := 0; c&1 == 1; spins++ {
		if committing && spins > commitSpinBudget {
			return sweepFailed
		}
		runtime.Gosched() // a write-back is publishing into this stripe
		c = m.StripeClock(s)
	}
	if c == mark {
		return sweepSettled // the open window restored without publishing
	}
	if !t.valueCheckStripe(s) {
		return sweepFailed
	}
	if m.StripeClock(s) != c {
		return sweepRetry // the check itself was torn
	}
	t.marks.set(s, c)
	return sweepRetry // watermark advanced: a confirming pass must follow
}

// commitValidate is the writer-commit validation callback, run by
// mem.CommitWrites holding the write stripes (t.owned), their
// seqlock windows open.
func (t *Txn) commitValidate() bool { return t.sweepReads(true) }

// Store speculatively writes a word into the line log's private write
// entries. It aborts (capacity) if the write set overflows. Its guards are
// Load's, inline in the same order.
func (t *Txn) Store(a mem.Addr, v uint64) {
	if !t.active {
		inactive("Store")
	}
	if t.hook != nil {
		t.hookYield(HookStore, a, 0)
	}
	if t.yieldIn--; t.yieldIn == 0 {
		t.yield()
	}
	if t.spuriousThresh != 0 {
		t.spurious()
	}
	rl := t.reads.open(mem.LineOf(a))
	if t.reads.put(rl, a, v) {
		t.owned.set(t.d.m.StripeOf(a))
		if t.reads.writeLines > t.writeCap {
			t.fail(Capacity, 0)
		}
	}
}

// Abort explicitly aborts the transaction (XABORT) with a payload code.
func (t *Txn) Abort(arg uint64) {
	if !t.active {
		inactive("Abort")
	}
	t.fail(Explicit, arg)
}

// Cancel quietly discards an active speculation without panicking. TM
// drivers use it when an outer restart (not a hardware abort) unwinds
// through an active hardware transaction.
func (t *Txn) Cancel() {
	t.active = false
}

// Commit atomically publishes the buffered writes after a final validation.
// On success the transaction becomes inactive; on failure it aborts
// (conflict).
//
// A writer commit publishes the line log's write entries directly (no
// intermediate copy) holding exactly the stripes they touch, taken in
// canonical order by mem.CommitWrites; disjoint-stripe commits therefore do
// not serialize against each other, mirroring per-line conflict detection on
// real hardware. A read-only commit publishes nothing and takes no stripe:
// it sweeps only its read-footprint stripes under the
// per-stripe seqlock read protocol, which mirrors real RTM, where a
// read-only commit touches nothing shared.
func (t *Txn) Commit() {
	if !t.active {
		inactive("Commit")
	}
	t.hookYield(HookCommit, mem.Nil, 0)
	if t.spuriousThresh != 0 {
		t.spurious()
	}
	if len(t.reads.entries) == 0 {
		if !t.sweepReads(false) {
			t.fail(Conflict, 0)
		}
	} else if !t.d.m.CommitWrites(t.reads.entries, t.commitValidate) {
		t.fail(Conflict, 0)
	}
	t.active = false
	t.d.commits.Add(1)
}

// Attempt runs body inside a fresh hardware transaction and commits it,
// recovering any hardware abort. It returns nil on commit and the *Abort
// otherwise. Non-abort panics propagate. Convenience for all-hardware
// paths; drivers needing mid-function commits use Begin/Commit directly.
func (t *Txn) Attempt(body func()) (ab *Abort) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := AsAbort(r); ok {
				ab = a
				return
			}
			if t.active {
				t.Cancel()
			}
			panic(r)
		}
	}()
	t.Begin()
	body()
	t.Commit()
	return nil
}
