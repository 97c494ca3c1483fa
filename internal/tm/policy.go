package tm

// The static retry budgets of paper §3.3, shared by every driver with a
// hardware fast path. The single try §3.4 gives the HTM prefix and postfix
// is not a budget: RH NOrec fixes it.
const (
	// MaxHTMRetries bounds fast-path hardware tries before falling back to
	// the slow path. Aborts whose status clears the may-retry hint
	// (capacity, spurious) fall back at once.
	MaxHTMRetries = 10
	// MaxSlowPathRestarts bounds slow-path restarts before the transaction
	// grabs the serial lock to guarantee progress (§3.3 "slow-path").
	MaxSlowPathRestarts = 10
)

// RetryPolicy holds the paper's ablation switches: each turns one path of
// the §3.3–§3.4 machinery off. The zero value is the paper's policy.
type RetryPolicy struct {
	// DisablePrefix turns the HTM prefix off entirely (with the prefix off
	// RH NOrec isolates the postfix contribution).
	DisablePrefix bool
	// DisablePostfix turns the HTM postfix off entirely (first writes then
	// go straight to the full-software path).
	DisablePostfix bool
	// DisableFast skips the pure-hardware fast path entirely, forcing every
	// transaction onto the slow path (isolates slow-path behavior).
	DisableFast bool
}
