package tm

// RetryPolicy captures the static retry policy of paper §3.3–§3.4, shared
// by Hybrid NOrec and RH NOrec (Lock Elision uses only the fast-path part).
type RetryPolicy struct {
	// MaxHTMRetries bounds fast-path hardware restarts before falling back
	// to the slow path. Aborts whose status clears the may-retry hint
	// (capacity, spurious) fall back immediately.
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
	// behavior).
	DisableFast bool
}

// DefaultPolicy returns the paper's static policy: 10 hardware retries and
// 10 slow-path restarts before serialization. The single try §3.4 gives the
// HTM prefix and postfix is not a knob: RH NOrec fixes it.
func DefaultPolicy() RetryPolicy {
	return RetryPolicy{
		MaxHTMRetries:       10,
		MaxSlowPathRestarts: 10,
		InitialPrefixLength: 4096,
		MinPrefixLength:     4,
	}
}

// WithDefaults fills zero fields from DefaultPolicy, so callers can set
// only the knobs they care about. It is a pure function of p: configuration
// enters through the caller, never through the environment.
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
	return p
}
