package tm

import (
	"os"
	"runtime"
)

// PolicyKind selects the contention-management policy (the Engine picks the
// Policy implementation from it; see engine.go). The paper fixes the static
// §3.3 policy; the other kinds are the contention-management layer this
// simulator adds on top, measurable head-to-head via rhbench -policy.
type PolicyKind uint8

const (
	// PolicyDefault means "unset": WithDefaults resolves it from the
	// RHNOREC_POLICY environment variable (static|backoff|adaptive), falling
	// back to PolicyStatic. An explicitly set kind always wins over the
	// environment, so CLI flags override ambient CI configuration.
	PolicyDefault PolicyKind = iota
	// PolicyStatic is the paper's §3.3 policy verbatim: a fixed hardware
	// retry budget, immediate fallback on capacity, no backoff (except the
	// deterministic ConflictBackoff ablation knob, off by default).
	PolicyStatic
	// PolicyBackoff is static plus bounded randomized exponential backoff
	// before hardware conflict retries and software-path restarts, the
	// classic contention-management baseline.
	PolicyBackoff
	// PolicyAdaptive is the abort-cause-aware policy: capacity aborts demote
	// the thread past the fast path (with epoch-based re-promotion probes),
	// conflict aborts back off randomized-exponentially, a global contention
	// window throttles fast-path entry while slow-path writers are hot, and
	// the per-thread retry budget self-tunes (implies RetryPolicy.Adaptive).
	PolicyAdaptive

	numPolicyKinds
)

var policyKindNames = [numPolicyKinds]string{
	PolicyDefault:  "default",
	PolicyStatic:   "static",
	PolicyBackoff:  "backoff",
	PolicyAdaptive: "adaptive",
}

// String returns the kind's stable name (the rhbench -policy vocabulary).
func (k PolicyKind) String() string {
	if k < numPolicyKinds {
		return policyKindNames[k]
	}
	return "invalid"
}

// PolicyKindByName parses a kind name as accepted by rhbench -policy and
// the RHNOREC_POLICY environment variable ("default" is not accepted: it
// names the unset state, not a policy).
func PolicyKindByName(name string) (PolicyKind, bool) {
	for k, n := range policyKindNames {
		if n == name && PolicyKind(k) != PolicyDefault {
			return PolicyKind(k), true
		}
	}
	return PolicyDefault, false
}

// PolicyEnvVar is the environment variable WithDefaults consults when
// RetryPolicy.Kind is PolicyDefault, mirroring RHNOREC_STRIPES: it lets CI
// sweep the conformance suite across policies without threading a knob
// through every test harness.
const PolicyEnvVar = "RHNOREC_POLICY"

// CombineEnvVar is the environment variable WithDefaults consults for
// RetryPolicy.Combine ("1" or "true" enables group commit), so CI can run
// the conformance suite with flat combining on without new harness knobs.
const CombineEnvVar = "RHNOREC_COMBINE"

// PersistEnvVar is the environment variable WithDefaults consults for
// RetryPolicy.Persist when it is PersistDefault: "group" (or "1"/"true")
// selects group-fsync durability, "sync" fsync-per-commit, "off" none.
const PersistEnvVar = "RHNOREC_PERSIST"

// PersistMode selects the durability mode of the persistence plane
// (internal/persist): whether committed write sets are redo-logged and how
// eagerly the log reaches stable storage. It lives on RetryPolicy because
// the policy is the per-deployment tuning surface every layer already
// threads through (rhbench -persist, rhserve -persist, RHNOREC_PERSIST).
type PersistMode uint8

const (
	// PersistDefault means "unset": WithDefaults resolves it from the
	// RHNOREC_PERSIST environment variable, falling back to PersistOff.
	PersistDefault PersistMode = iota
	// PersistOff runs without a redo log — the pre-durability behavior.
	PersistOff
	// PersistGroup appends redo records at commit and fsyncs in groups: a
	// durable ack waits for the group-fsync frontier, batching every
	// concurrent waiter behind one fsync pass.
	PersistGroup
	// PersistSync fsyncs inside every commit's append — the
	// fsync-per-commit ablation.
	PersistSync

	numPersistModes
)

var persistModeNames = [numPersistModes]string{
	PersistDefault: "default",
	PersistOff:     "off",
	PersistGroup:   "group",
	PersistSync:    "sync",
}

// String returns the mode's stable name (the rhbench/rhserve -persist
// vocabulary).
func (m PersistMode) String() string {
	if m < numPersistModes {
		return persistModeNames[m]
	}
	return "invalid"
}

// PersistModeByName parses a mode name as accepted by the -persist flags
// and RHNOREC_PERSIST ("default" is not accepted: it names the unset
// state).
func PersistModeByName(name string) (PersistMode, bool) {
	for m, n := range persistModeNames {
		if n == name && PersistMode(m) != PersistDefault {
			return PersistMode(m), true
		}
	}
	return PersistDefault, false
}

// RetryPolicy captures the static retry policy of paper §3.3–§3.4, shared
// by Hybrid NOrec and RH NOrec (Lock Elision uses only the fast-path part).
type RetryPolicy struct {
	// MaxHTMRetries bounds fast-path hardware restarts before falling back
	// to the slow path. Aborts whose status clears the may-retry hint
	// (capacity, explicit policy decisions) fall back immediately.
	MaxHTMRetries int
	// MaxSlowPathRestarts bounds slow-path restarts before the transaction
	// grabs the serial lock to guarantee progress (§3.3 "slow-path").
	MaxSlowPathRestarts int
	// InitialPrefixLength seeds the dynamic prefix-length adaptation: the
	// number of reads the HTM prefix attempts to execute speculatively
	// before the first adjustment.
	InitialPrefixLength int
	// MinPrefixLength floors the adaptation; below it the prefix is not
	// attempted at all.
	MinPrefixLength int
	// DisablePrefix turns the HTM prefix off entirely (ablation knob; with
	// the prefix off RH NOrec isolates the postfix contribution).
	DisablePrefix bool
	// DisablePostfix turns the HTM postfix off entirely (ablation knob;
	// first writes then go straight to the full-software path).
	DisablePostfix bool
	// DisableFast skips the pure-hardware fast path entirely, forcing every
	// transaction onto the slow path (ablation knob; isolates slow-path
	// behavior — the combining sweep uses it to create a commit-lock convoy
	// at will).
	DisableFast bool
	// DisablePrefixAdaptation freezes the prefix length at
	// InitialPrefixLength (ablation knob).
	DisablePrefixAdaptation bool
	// Adaptive enables the dynamic per-thread fast-path retry budget (the
	// paper's §3.3 future-work policy; see RetryController). MaxHTMRetries
	// then seeds the initial budget.
	Adaptive bool
	// ConflictBackoff enables exponential backoff between hardware
	// conflict retries: the k-th retry yields the processor
	// ConflictBackoff<<k times (capped). The paper's static policy has
	// none (0); the knob exists as a contention-management ablation.
	// (Deterministic; the randomized policies use BackoffBaseYields
	// instead.)
	ConflictBackoff int

	// Kind selects the contention-management policy. PolicyDefault resolves
	// from RHNOREC_POLICY, then PolicyStatic.
	Kind PolicyKind
	// BackoffBaseYields is the randomized-backoff base: before the k-th
	// conflict retry (1-based) a thread yields uniformly in
	// [1, BackoffBaseYields<<(k-1)], capped at BackoffMaxYields. Used by
	// PolicyBackoff and PolicyAdaptive.
	BackoffBaseYields int
	// BackoffMaxYields caps one randomized backoff's yield count.
	BackoffMaxYields int
	// PromotionProbePeriod is the re-promotion epoch of PolicyAdaptive: a
	// capacity-demoted thread skips the fast path for this many transactions,
	// then probes it once; a hardware commit of the probe re-promotes the
	// thread (so a workload phase change can recover the fast path).
	PromotionProbePeriod int
	// ContentionWindow is PolicyAdaptive's fast-path admission threshold:
	// when at least this many threads are concurrently on the slow path,
	// fast-path entry is briefly throttled (a bounded wait) to keep hardware
	// speculation from convoying on the slow-path commit lock. Negative
	// disables throttling; 0 takes the default.
	ContentionWindow int
	// Combine enables flat-combining group commit on the software slow
	// path: a committer that finds the sequence lock held at its own
	// snapshot base enqueues its pre-validated write set into the memory's
	// combining ring instead of restarting, and the lock holder drains
	// signature-disjoint queued commits under its one ticket window. Off by
	// default — it changes slow-path yield sequences, so recorded explore
	// schedules assume it off unless re-recorded. WithDefaults also reads
	// the RHNOREC_COMBINE environment variable ("1"/"true" enables) so CI
	// can sweep the conformance suite with combining on.
	Combine bool
	// Persist selects the durability mode (see PersistMode). PersistDefault
	// resolves from RHNOREC_PERSIST, then PersistOff. The TM drivers ignore
	// it — persistence attaches at the memory substrate — but it rides on
	// the policy so every harness that threads a policy (serve, bench, the
	// CLIs) inherits the knob without new plumbing.
	Persist PersistMode
}

// Backoff yields the processor according to the policy for the given retry
// attempt (0-based); a no-op when ConflictBackoff is 0 — the paper's
// static §3.3 policy, which backs off only by falling back.
func (p RetryPolicy) Backoff(attempt int) {
	if p.ConflictBackoff <= 0 {
		return
	}
	n := p.ConflictBackoff << uint(attempt)
	if n > 1024 {
		n = 1024
	}
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// DefaultPolicy returns the paper's static policy: 10 hardware retries and
// 10 slow-path restarts before serialization. The single try §3.4 gives the
// HTM prefix and postfix is not a knob: RH NOrec fixes it.
func DefaultPolicy() RetryPolicy {
	return RetryPolicy{
		MaxHTMRetries:        10,
		MaxSlowPathRestarts:  10,
		InitialPrefixLength:  4096,
		MinPrefixLength:      4,
		Kind:                 PolicyStatic,
		BackoffBaseYields:    64,
		BackoffMaxYields:     1024,
		PromotionProbePeriod: 64,
		ContentionWindow:     2,
		Persist:              PersistOff,
	}
}

// WithDefaults fills zero fields from DefaultPolicy (the paper's static
// §3.3 policy), so callers can set only the knobs they care about.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultPolicy()
	if p.MaxHTMRetries <= 0 {
		p.MaxHTMRetries = d.MaxHTMRetries
	}
	if p.MaxSlowPathRestarts <= 0 {
		p.MaxSlowPathRestarts = d.MaxSlowPathRestarts
	}
	if p.InitialPrefixLength <= 0 {
		p.InitialPrefixLength = d.InitialPrefixLength
	}
	if p.MinPrefixLength <= 0 {
		p.MinPrefixLength = d.MinPrefixLength
	}
	if p.Kind == PolicyDefault {
		if k, ok := PolicyKindByName(os.Getenv(PolicyEnvVar)); ok {
			p.Kind = k
		} else {
			p.Kind = d.Kind
		}
	}
	if p.Kind == PolicyAdaptive {
		// The adaptive policy subsumes the per-thread budget controller.
		p.Adaptive = true
	}
	if p.BackoffBaseYields <= 0 {
		p.BackoffBaseYields = d.BackoffBaseYields
	}
	if p.BackoffMaxYields <= 0 {
		p.BackoffMaxYields = d.BackoffMaxYields
	}
	if p.PromotionProbePeriod <= 0 {
		p.PromotionProbePeriod = d.PromotionProbePeriod
	}
	if p.ContentionWindow == 0 {
		p.ContentionWindow = d.ContentionWindow
	}
	if !p.Combine {
		if v := os.Getenv(CombineEnvVar); v == "1" || v == "true" {
			p.Combine = true
		}
	}
	if p.Persist == PersistDefault {
		switch v := os.Getenv(PersistEnvVar); v {
		case "group", "1", "true":
			p.Persist = PersistGroup
		case "sync":
			p.Persist = PersistSync
		default:
			p.Persist = PersistOff
		}
	}
	return p
}
