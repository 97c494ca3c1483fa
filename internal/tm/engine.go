package tm

import (
	"runtime"
	"sync/atomic"

	"rhnorec/internal/htm"
	"rhnorec/internal/obs"
)

// This file is the contention-management engine: the pluggable layer that
// decides *when* a transaction gives up on the pure HTM fast path, backs
// off, or is kept away from hardware entirely. The paper fixes the static
// §3.3 policy and names adaptation as future work; Brown & Ravi's cost-of-
// concurrency analysis and the OCC-for-Go line of work both argue that path
// selection should be a first-class, abort-cause-aware decision. The engine
// makes it one without touching the TM protocols themselves: the transaction
// skeleton (run.go) routes its one retry loop through a per-thread Policy,
// and every implementation
// of it preserves the paper's progress argument — a thread denied the fast
// path still reaches the slow path, and the slow path still escalates to
// the serial lock after MaxSlowPathRestarts (DESIGN.md §10).
//
// Determinism contract: all policy randomness derives from the engine's
// seed source, which is htm.Config.SeedFn when the device has one — under
// internal/explore that is the deterministic per-run counter, so recorded
// schedules replay bit-identically with any policy enabled. There is no
// time-seeded randomness anywhere in the retry paths. The static policy
// draws no seeds at all, keeping pre-policy explore fixtures byte-stable.

// Decision is a Policy's verdict on a hardware abort.
type Decision uint8

const (
	// RetryFast: retry the hardware fast path (the policy has already
	// applied any backoff it wanted).
	RetryFast Decision = iota
	// GiveUpFast: stop speculating and fall back to the slow path.
	GiveUpFast
)

// Policy is one thread's contention-management view. Implementations are
// single-goroutine like the ThreadBase they ride on; cross-thread state
// (the contention window) lives in the shared Engine behind atomics.
//
// Call protocol, per Run invocation (ThreadBase.Run is the only caller):
//
//	if AdmitFast() { for { attempt; on abort: OnAbort(ab, retries) } }
//	on fast commit:   OnFastCommit(retriesUsed)
//	on fallback:      OnFallback(); ... slow path ...; OnSlowDone()
//	per slow restart: OnSTMRestart(restarts)
type Policy interface {
	// Kind identifies the policy.
	Kind() PolicyKind
	// AdmitFast gates fast-path entry at the top of Run: false sends the
	// transaction straight to the slow path (capacity demotion); it may
	// also briefly delay the caller (contention-window throttling).
	AdmitFast() bool
	// OnAbort judges a hardware abort: retries is the 1-based count of
	// failed attempts so far. A RetryFast verdict has already applied the
	// policy's backoff; protocol-specific waits (spinning out a held lock)
	// stay with the driver.
	OnAbort(ab *htm.Abort, retries int) Decision
	// OnFastCommit records a fast-path commit that needed retriesUsed
	// hardware restarts.
	OnFastCommit(retriesUsed int)
	// OnFallback records fast-path surrender (or a demotion bypass) at
	// slow-path entry.
	OnFallback()
	// OnSlowDone marks slow-path exit (commit or user abort); it closes
	// the window opened by OnFallback.
	OnSlowDone()
	// OnSTMRestart records a software-path restart (1-based); randomized
	// policies back off here too.
	OnSTMRestart(restarts int)
}

// Engine holds the policy configuration and the cross-thread contention
// state shared by a System's threads. Each System owns one Engine; each
// Thread gets a Policy from NewThreadPolicy at construction.
type Engine struct {
	policy RetryPolicy
	// seedFn, when non-nil, is the device's htm.Config.SeedFn — the single
	// deterministic seed source of the process under internal/explore.
	seedFn func() uint64
	// seedCtr seeds threads when no device seed source exists (pure STM
	// systems); deterministic by construction order.
	seedCtr atomic.Uint64
	// slowPath counts threads currently between OnFallback and OnSlowDone:
	// the "slow-path writers are hot" signal of the contention window.
	slowPath atomic.Int64
}

// NewEngine builds an engine for policy p (zero fields filled from
// DefaultPolicy, Kind resolved from RHNOREC_POLICY when unset). seedFn
// should be the device's htm.Config.SeedFn (nil for pure-software systems):
// randomized policies draw per-thread RNG seeds from it so explore replays
// stay bit-reproducible.
func NewEngine(p RetryPolicy, seedFn func() uint64) *Engine {
	return &Engine{policy: p.WithDefaults(), seedFn: seedFn}
}

// Policy returns the engine's resolved policy configuration.
func (e *Engine) Policy() RetryPolicy { return e.policy }

// SlowPathLoad reports the current contention-window occupancy (threads
// between OnFallback and OnSlowDone). Exposed for tests.
func (e *Engine) SlowPathLoad() int { return int(e.slowPath.Load()) }

// nextSeed derives one non-zero per-thread RNG seed from the engine's seed
// source through a splitmix64 finalizer (consecutive counter values must
// decorrelate, or every thread would jitter in lock-step).
func (e *Engine) nextSeed() uint64 {
	var s uint64
	if e.seedFn != nil {
		s = e.seedFn()
	} else {
		s = e.seedCtr.Add(1)
	}
	z := s + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// NewThreadPolicy builds the per-thread Policy for b. Threads are created
// during (serialized) system setup, so the seed draw order — and with it
// every downstream jitter decision — is deterministic. The static policy
// draws no seed, keeping the device's seed stream identical to pre-policy
// builds (checked-in explore fixtures depend on that).
func (e *Engine) NewThreadPolicy(b *ThreadBase) Policy {
	base := cmBase{e: e, b: b}
	base.ctl.InitRetry(e.policy)
	switch e.policy.Kind {
	case PolicyBackoff:
		base.rng = e.nextSeed()
		return &backoffPolicy{cmBase: base}
	case PolicyAdaptive:
		base.rng = e.nextSeed()
		return &adaptivePolicy{cmBase: base}
	default:
		return &staticPolicy{cmBase: base}
	}
}

// throttleSpinRounds bounds one contention-window wait. The wait is
// best-effort backpressure, not an admission lock: a bounded spin cannot
// livelock, and under the explore scheduler (where Gosched does not pass
// the cooperative baton) it degrades to a recorded no-op.
const throttleSpinRounds = 128

// cmBase is the state shared by every policy implementation: the engine,
// the owning thread (for Stats/obs accounting), the per-thread retry-budget
// controller, and the jitter RNG (zero for the static policy).
type cmBase struct {
	e   *Engine
	b   *ThreadBase
	ctl RetryController
	rng uint64
}

// nextRand steps the thread-local xorshift64 stream.
func (c *cmBase) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// backoff performs one bounded randomized exponential backoff before the
// attempt-th retry (1-based): uniform in [1, base<<(attempt-1)] processor
// yields, capped at BackoffMaxYields. Counter-only on the obs ledger (one
// fires per retry; ring entries would drown the window).
func (c *cmBase) backoff(attempt int) {
	p := &c.e.policy
	bound := p.BackoffMaxYields
	if shift := uint(attempt - 1); shift < 31 {
		if b := p.BackoffBaseYields << shift; b < bound {
			bound = b
		}
	}
	n := 1 + int(c.nextRand()%uint64(bound))
	c.b.St.PolicyBackoffs++
	c.b.RecordPolicy(obs.DecisionBackoff)
	if cooperative.Load() {
		// The explore scheduler serializes workers; yielding cannot let
		// anyone else run and only adds wall-clock noise.
		return
	}
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// giveUp applies the paper's static give-up rules shared by every policy:
// non-retryable non-explicit aborts (capacity, spurious) fall back at once;
// explicit aborts (lock-taken conditions the driver spins out) and
// conflicts retry until the budget is spent.
func (c *cmBase) giveUp(ab *htm.Abort, retries int) bool {
	if !ab.MayRetry() && ab.Code != htm.Explicit {
		return true
	}
	return retries >= c.ctl.Budget()
}

func (c *cmBase) OnFastCommit(retriesUsed int) { c.ctl.OnFastCommit(retriesUsed) }
func (c *cmBase) OnFallback() {
	c.ctl.OnFallback()
	c.e.slowPath.Add(1)
}
func (c *cmBase) OnSlowDone()               { c.e.slowPath.Add(-1) }
func (c *cmBase) OnSTMRestart(restarts int) {}

// staticPolicy is the paper's §3.3 policy verbatim, routed through the
// engine so every driver has exactly one retry-decision code path. Its
// decisions are bit-identical to the pre-engine drivers: fixed budget,
// immediate fallback on capacity/spurious, the deterministic
// ConflictBackoff ablation knob, no admission gating.
type staticPolicy struct{ cmBase }

func (p *staticPolicy) Kind() PolicyKind { return PolicyStatic }
func (p *staticPolicy) AdmitFast() bool  { return !p.e.policy.DisableFast }

func (p *staticPolicy) OnAbort(ab *htm.Abort, retries int) Decision {
	if p.giveUp(ab, retries) {
		return GiveUpFast
	}
	if ab.Code == htm.Conflict {
		p.e.policy.Backoff(retries - 1)
	}
	return RetryFast
}

// backoffPolicy is static plus bounded randomized exponential backoff on
// hardware conflicts and software restarts — the classic CM baseline that
// de-synchronizes colliding threads without judging abort causes.
type backoffPolicy struct{ cmBase }

func (p *backoffPolicy) Kind() PolicyKind { return PolicyBackoff }
func (p *backoffPolicy) AdmitFast() bool  { return !p.e.policy.DisableFast }

func (p *backoffPolicy) OnAbort(ab *htm.Abort, retries int) Decision {
	if p.giveUp(ab, retries) {
		return GiveUpFast
	}
	if ab.Code == htm.Conflict {
		p.backoff(retries)
	}
	return RetryFast
}

func (p *backoffPolicy) OnSTMRestart(restarts int) { p.backoff(restarts) }

// adaptivePolicy is the abort-cause-aware policy. Three mechanisms, all
// consuming the PR 2 taxonomy:
//
//   - Capacity demotion: a capacity abort proves the transaction's
//     footprint exceeds the transactional cache, so hardware retries are
//     futile — the thread is demoted past the fast path. Every
//     PromotionProbePeriod transactions it probes the fast path once; a
//     hardware commit of the probe re-promotes it, so a workload phase
//     change (smaller transactions) recovers full speed.
//   - Conflict backoff: randomized exponential, as backoffPolicy.
//   - Contention window: when ContentionWindow or more threads sit on the
//     slow path, fast-path entry waits briefly (bounded) — RH NOrec's
//     postfix commits acquire the clock lock, and hardware speculation
//     launched into that convoy mostly aborts on it.
//
// Progress is never traded away: demotion and throttling only *redirect or
// delay* entry; the slow path and its serial-lock escalation stay exactly
// as §3.3 prescribes (DESIGN.md §10).
type adaptivePolicy struct {
	cmBase
	// demoted: capacity-demoted past the fast path.
	demoted bool
	// sinceDemotion counts fast-path skips since demotion (the probe epoch).
	sinceDemotion int
	// probing: the current transaction is a re-promotion probe.
	probing bool
	// admitted: the current transaction actually attempted the fast path
	// (budget feedback must not learn from bypassed attempts).
	admitted bool
}

func (p *adaptivePolicy) Kind() PolicyKind { return PolicyAdaptive }

func (p *adaptivePolicy) AdmitFast() bool {
	if p.e.policy.DisableFast {
		p.admitted = false
		return false
	}
	if p.demoted {
		p.sinceDemotion++
		if p.sinceDemotion < p.e.policy.PromotionProbePeriod {
			p.b.St.PolicyFastSkips++
			p.admitted = false
			return false
		}
		p.sinceDemotion = 0
		p.probing = true
		p.b.St.PolicyPromotionProbes++
		p.b.RecordPolicy(obs.DecisionPromoteProbe)
		p.admitted = true
		return true
	}
	if w := p.e.policy.ContentionWindow; w > 0 && p.e.slowPath.Load() >= int64(w) {
		p.b.St.PolicyThrottleWaits++
		p.b.RecordPolicy(obs.DecisionThrottle)
		if !cooperative.Load() {
			for i := 0; i < throttleSpinRounds && p.e.slowPath.Load() >= int64(w); i++ {
				runtime.Gosched()
			}
		}
	}
	p.admitted = true
	return true
}

func (p *adaptivePolicy) OnAbort(ab *htm.Abort, retries int) Decision {
	if ab.Code == htm.Capacity {
		if !p.demoted {
			p.demoted = true
			p.b.St.PolicyDemotions++
			p.b.RecordPolicy(obs.DecisionDemote)
		}
		p.sinceDemotion = 0
		p.probing = false
		return GiveUpFast
	}
	if p.giveUp(ab, retries) {
		return GiveUpFast
	}
	if ab.Code == htm.Conflict {
		p.backoff(retries)
	}
	return RetryFast
}

func (p *adaptivePolicy) OnFastCommit(retriesUsed int) {
	p.ctl.OnFastCommit(retriesUsed)
	// A hardware commit while demoted is by construction the probe
	// committing: the fast path works again, re-promote.
	p.demoted = false
	p.probing = false
}

func (p *adaptivePolicy) OnFallback() {
	if p.admitted {
		// Budget feedback only from real fast-path surrender; a demotion
		// bypass must not shrink the budget further.
		p.ctl.OnFallback()
	}
	p.probing = false
	p.e.slowPath.Add(1)
}

func (p *adaptivePolicy) OnSTMRestart(restarts int) { p.backoff(restarts) }
