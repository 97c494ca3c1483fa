package htm

import "rhnorec/internal/mem"

// HookOp identifies which device boundary a Hook observes. Together with the
// mem.Hook sites these are the yield points of the deterministic schedule
// explorer (internal/explore): every speculative operation announces itself
// here before touching shared state, so a cooperative scheduler that owns
// both hooks sees every interleaving-relevant step.
type HookOp uint8

const (
	// HookBegin fires at the end of Begin, once the transaction is set up.
	HookBegin HookOp = iota
	// HookLoad fires at the top of Load, before the read is served.
	HookLoad
	// HookStore fires at the top of Store, before the write is buffered.
	HookStore
	// HookValidate fires when an in-flight validation sweep starts
	// (incremental NOrec-style revalidation; commit-time sweeps are covered
	// by HookCommit).
	HookValidate
	// HookCommit fires at the top of Commit, before any validation or
	// publish.
	HookCommit
	// HookAbort fires as the transaction dies, before the abort panic
	// unwinds. The info argument carries AbortInfo(code, arg); any returned
	// directive is ignored — the transaction is already dead.
	HookAbort
)

// Directive is a fault-injection command a Hook may return from Yield,
// modelling environmental hazards at a *chosen* operation instead of the
// device-wide SpuriousAbortProb dice: DirSpurious kills the transaction the
// way an interrupt or page fault would, DirCapacity the way a cache-set
// eviction would. Directives only make sense at points with an active
// transaction (begin/load/store/validate/commit); elsewhere they are
// ignored.
type Directive uint8

const (
	DirNone Directive = iota
	DirSpurious
	DirCapacity
)

// Hook observes (and may redirect) every transactional operation on a
// Device. See mem.Hook for the substrate half of the yield-point map.
type Hook interface {
	Yield(op HookOp, a mem.Addr, info uint64) Directive
}

// AbortInfo packs an abort's code and XABORT payload into the info word of a
// HookAbort yield; UnpackAbortInfo recovers them. The explorer uses the pair
// to label trace events with the obs.Cause taxonomy.
func AbortInfo(code Code, arg uint64) uint64 { return uint64(code) | arg<<8 }

// UnpackAbortInfo is the inverse of AbortInfo.
func UnpackAbortInfo(info uint64) (Code, uint64) { return Code(info & 0xff), info >> 8 }

// SetHook installs (or, with nil, removes) the device hook. It must be
// called while no transaction is in flight: each transaction reads the hook
// once, at Begin, and announces all its operations, its abort included, to
// the hook it read.
func (d *Device) SetHook(h Hook) { d.hook = h }

// hookYield announces op to the transaction's hook, if any, and applies the
// returned fault directive by aborting the transaction.
func (t *Txn) hookYield(op HookOp, a mem.Addr, info uint64) {
	h := t.hook
	if h == nil {
		return
	}
	switch h.Yield(op, a, info) {
	case DirSpurious:
		t.fail(Spurious, 0)
	case DirCapacity:
		t.fail(Capacity, 0)
	}
}
