package tm

import (
	"rhnorec/internal/htm"
	"rhnorec/internal/obs"
)

// This file is the runtime half of the observability layer: ThreadBase
// helpers the transaction skeleton (run.go) and the drivers' own hardware
// sections route abort and lifecycle events through, so that (1) the Stats
// counters behind Figures 4–6 and the obs taxonomy can never disagree, and
// (2) a thread with observability disabled (Stats.Obs == nil) pays exactly
// one predictable branch per site.

// RecordHTMAbort accounts one hardware abort on both ledgers: the Stats
// counter for its RTM status code (the "HTM aborts per operation" rows of
// Figures 4–6) and — when observability is attached — the taxonomy cell,
// retry-ordinal histogram and ring event for its protocol-level cause
// (htm.(*Abort).Cause). retry is the 1-based ordinal of the attempt that
// died.
func (b *ThreadBase) RecordHTMAbort(ab *htm.Abort, retry int) {
	switch ab.Code {
	case htm.Conflict:
		b.St.HTMConflictAborts++
	case htm.Capacity:
		b.St.HTMCapacityAborts++
	case htm.Explicit:
		b.St.HTMExplicitAborts++
	case htm.Spurious:
		b.St.HTMSpuriousAborts++
	}
	if o := b.St.Obs; o != nil {
		o.RecordAbort(ab.Cause(), retry, b.M.Ticket())
	}
}

// RecordSTMRestart accounts one software-path restart (a NOrec value
// validation failing or the global clock moving under a read — the
// "restarts per slow-path transaction" row) in the taxonomy and ring. The
// corresponding Stats counter (SlowPathRestarts or STMRestarts) stays with
// the skeleton's restart loop, which knows whether a fast path exists.
// retry is the 1-based ordinal of the failed attempt.
func (b *ThreadBase) RecordSTMRestart(retry int) {
	if o := b.St.Obs; o != nil {
		o.RecordAbort(obs.CauseSTMValidation, retry, b.M.Ticket())
	}
}

// ObsEvent appends a begin/fallback/commit event to the thread's event
// ring (if one is attached), stamped with the memory's commit ticket — a
// global publish counter that keeps cross-thread event orderings
// consistent with the committed history without any lock (the striped
// substrate has no single seqlock clock to sample; see docs/METRICS.md).
func (b *ThreadBase) ObsEvent(k obs.EventKind, p obs.Path) {
	if o := b.St.Obs; o != nil {
		o.RecordEvent(k, p, b.M.Ticket())
	}
}
