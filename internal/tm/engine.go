package tm

import (
	"sync/atomic"

	"rhnorec/internal/htm"
)

// Engine is what the threads of one System share of the §3.3 retry policy:
// its ablation switches, and a count of the threads currently on the
// slow path after surrendering the fast path. The skeleton (run.go) keeps
// the count; the service layer reads it to shed work while the slow path is
// saturated (internal/serve). Drivers without a hardware fast path to give
// up (TL2, serial) have no engine.
type Engine struct {
	policy   RetryPolicy
	slowPath atomic.Int64
}

// NewEngine builds an engine for policy p.
func NewEngine(p RetryPolicy) *Engine { return &Engine{policy: p} }

// Policy returns the engine's ablation switches.
func (e *Engine) Policy() RetryPolicy { return e.policy }

// SlowPathLoad reports how many threads are on the slow path after a
// fallback right now.
func (e *Engine) SlowPathLoad() int { return int(e.slowPath.Load()) }

// giveUp is the paper's static rule for a fast path whose retries-th try
// (1-based) died with ab: an abort that clears the may-retry hint and was
// not the protocol's own (capacity, spurious) falls back at once; conflicts,
// and explicit aborts on a lock the driver waits out, retry until
// MaxHTMRetries tries are spent.
func (e *Engine) giveUp(ab *htm.Abort, retries int) bool {
	if !ab.MayRetry() && ab.Code != htm.Explicit {
		return true
	}
	return retries >= MaxHTMRetries
}
