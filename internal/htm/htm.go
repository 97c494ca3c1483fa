// Package htm simulates a best-effort hardware transactional memory in the
// style of Intel Haswell RTM, which the paper's fast paths and the RH NOrec
// prefix/postfix transactions run on. Go exposes no HTM intrinsics, so this
// package is the reproduction's stand-in substrate (see DESIGN.md §1).
//
// Semantics provided, matching what the paper relies on from real RTM:
//
//   - Opacity: a speculative Load never returns a value inconsistent with a
//     single memory snapshot. The transaction value-logs its distinct reads
//     and keeps, per memory stripe in its footprint, the stripe clock its
//     log was last proved current at; when a footprint stripe's clock has
//     moved, that stripe's logged reads are revalidated by value, the way
//     NOrec validates, and the snapshot extended. Mutations of stripes
//     outside the footprint cost the transaction nothing. A failed
//     revalidation is a conflict abort.
//   - Isolation of speculative writes: Stores are buffered privately and
//     published atomically at Commit, holding exactly the stripes the write
//     set touches with all their seqlock windows open, so no other thread —
//     transactional or not — ever observes a partial write set. This is the
//     property Figure 2 of the paper leans on. Read-only commits publish
//     nothing and take no stripe: they validate
//     via the per-stripe seqlock read protocol, like a real RTM commit of a
//     read-only transaction, which touches nothing shared.
//   - Strong atomicity with plain accesses: every plain mutation moves its
//     stripe's clock, so it aborts (at their next validation point) all
//     hardware transactions that have read the mutated locations.
//   - Best effort: transactions abort on conflicts, on read/write-set
//     capacity overflow (accounted in distinct 64-byte lines, like a
//     transactional L1), on explicit request (XABORT), and — optionally —
//     spuriously, modelling interrupts, page faults and other environmental
//     aborts. There is no progress guarantee; callers must provide a
//     software fallback.
//
// Timing fidelity: a real HTM aborts a reader the instant a conflicting
// cache line is invalidated; this simulator aborts it at its next Load or at
// Commit. Both orderings admit exactly the same committed histories, which
// is what the algorithms above care about.
//
// Aborts unwind as panics carrying *Abort, mirroring how RTM aborts transfer
// control back to the XBEGIN checkpoint. The TM drivers (packages
// lockelision, hynorec, core, ...) recover them at their attempt loop.
package htm

import (
	"fmt"

	"rhnorec/internal/obs"
)

// Code classifies why a hardware transaction aborted, mirroring the RTM
// abort status bits the paper's retry policy (§3.3) inspects. Figures 4–6
// break HTM aborts per operation into the conflict and capacity series;
// the Abort.Cause mapping below refines Explicit into the protocol-level
// taxonomy the observability layer reports.
type Code uint8

const (
	// Conflict: another thread's commit or plain store invalidated the
	// transaction's read or write set. Retrying in hardware may help —
	// the only code whose RTM status sets the may-retry hint (paper §3.3;
	// the "HTM conflict aborts" series of Figures 4–6).
	Conflict Code = iota + 1
	// Capacity: the read or write set overflowed the transactional cache
	// (paper §3.2's L1/L2-bounded domains). Retrying in hardware is futile
	// — the paper's NO_RETRY case (§3.3; the "HTM capacity aborts" series
	// of Figures 4–6).
	Capacity
	// Explicit: the transaction executed Abort (XABORT), e.g. after
	// observing a taken global_htm_lock (Algorithm 1 line 3). The payload
	// distinguishes the protocol-level causes — see the Arg constants.
	Explicit
	// Spurious: an environmental abort (interrupt, page fault, TLB miss,
	// ...; paper §3.2's non-transactional abort sources). Like most such
	// aborts on Haswell, it clears the retry hint: the condition that
	// killed the transaction is likely to recur immediately, so the right
	// response is the software fallback.
	Spurious
)

// Canonical XABORT payloads of the protocols in this repository. Every TM
// driver passes one of these to Txn.Abort, so the observability layer can
// join the hardware abort code with the algorithm-level cause (Abort.Cause
// below; the obs.Cause taxonomy documents the join).
const (
	// ArgHTMLockTaken: the fast path's begin-time subscription found the
	// global HTM lock — or Lock Elision's elided global lock — held
	// (Algorithm 1 line 3; paper §1.2 for lock elision).
	ArgHTMLockTaken uint64 = 1
	// ArgClockLocked: the fast path's commit point found the NOrec global
	// clock locked by a software writer (Algorithm 1 lines 29–32), or an
	// RH NOrec prefix commit found it locked (Algorithm 3 lines 47–56).
	ArgClockLocked uint64 = 2
	// ArgSerialTaken: the serial starvation lock of §3.3 was held at the
	// fast path's commit point.
	ArgSerialTaken uint64 = 3
	// ArgWrongPhase: PhasedTM's phase subscription found the system in (or
	// entering) a software phase (paper §1.1, [16]).
	ArgWrongPhase uint64 = 4
	// ArgStripeConflict: an RH-TL2 hardware transaction found a TL2 stripe
	// it must publish or revalidate locked by a software commit, or newer
	// than the slow path's read version ([18]; paper §1.2).
	ArgStripeConflict uint64 = 5
)

// Cause joins the hardware abort code with the algorithm-level XABORT
// payload into the observability taxonomy. This is the device-boundary
// mapping: TM drivers never classify aborts themselves, so every abort in
// the system lands in exactly one taxonomy cell (obs.Cause).
func (a *Abort) Cause() obs.Cause {
	switch a.Code {
	case Conflict:
		return obs.CauseConflict
	case Capacity:
		return obs.CauseCapacity
	case Spurious:
		return obs.CauseSpurious
	case Explicit:
		switch a.Arg {
		case ArgHTMLockTaken:
			return obs.CauseHTMLockTaken
		case ArgClockLocked:
			return obs.CauseClockLocked
		case ArgSerialTaken:
			return obs.CauseSerialTaken
		case ArgWrongPhase:
			return obs.CauseWrongPhase
		case ArgStripeConflict:
			return obs.CauseStripeConflict
		}
		return obs.CauseExplicitOther
	}
	return obs.CauseExplicitOther
}

func (c Code) String() string {
	switch c {
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	case Spurious:
		return "spurious"
	default:
		return fmt.Sprintf("htm.Code(%d)", uint8(c))
	}
}

// Abort is the panic payload of a hardware abort. Arg carries the XABORT
// immediate for explicit aborts and is zero otherwise.
type Abort struct {
	Code Code
	Arg  uint64
}

func (a *Abort) Error() string {
	if a.Code == Explicit {
		return fmt.Sprintf("htm abort: explicit(%d)", a.Arg)
	}
	return "htm abort: " + a.Code.String()
}

// MayRetry reports whether the RTM status would set the "retry may succeed"
// hint: true only for conflicts; capacity, explicit and environmental
// aborts fall back (the paper's NO_RETRY case, §3.3).
func (a *Abort) MayRetry() bool { return a.Code == Conflict }

// AsAbort extracts an *Abort from a recovered panic value.
func AsAbort(r any) (*Abort, bool) {
	a, ok := r.(*Abort)
	return a, ok
}

// Config describes the simulated transactional hardware.
type Config struct {
	// Cores is the number of simulated physical cores. When more active
	// threads than cores run, per-transaction capacity halves, modelling
	// HyperThreading's split of the L1 (paper §3.2).
	Cores int
	// ReadCapacityLines bounds the distinct cache lines a transaction may
	// read (Haswell tracks reads in an L2-sized bloom filter, so this is
	// larger than the write capacity).
	ReadCapacityLines int
	// WriteCapacityLines bounds the distinct cache lines a transaction may
	// write (L1-bounded on Haswell).
	WriteCapacityLines int
	// SpuriousAbortProb is the per-operation probability of an
	// environmental abort. Zero disables spurious aborts.
	SpuriousAbortProb float64
	// SeedFn, when non-nil, supplies each transaction's RNG seed instead of
	// the device's arrival-order counter, whose value depends on goroutine
	// scheduling. The explorer installs a deterministic source here so runs
	// are bit-reproducible; nil keeps the counter.
	SeedFn func() uint64
}

// DefaultConfig mirrors the paper's testbed: 8 cores, a 32 KiB L1 write
// domain (512 lines) and a larger read domain.
func DefaultConfig() Config {
	return Config{
		Cores:              8,
		ReadCapacityLines:  2048,
		WriteCapacityLines: 512,
		SpuriousAbortProb:  0,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cores <= 0 {
		c.Cores = d.Cores
	}
	if c.ReadCapacityLines <= 0 {
		c.ReadCapacityLines = d.ReadCapacityLines
	}
	if c.WriteCapacityLines <= 0 {
		c.WriteCapacityLines = d.WriteCapacityLines
	}
	return c
}
