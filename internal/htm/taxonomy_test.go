package htm

import (
	"testing"

	"rhnorec/internal/obs"
)

// protocolArgs are every XABORT payload a TM driver in this repository can
// pass to Txn.Abort, plus a non-canonical one standing in for application
// XABORTs.
var protocolArgs = []uint64{ArgHTMLockTaken, ArgClockLocked, ArgSerialTaken, ArgWrongPhase, ArgStripeConflict, 99}

// TestAbortCauseMapping asserts that every hardware abort code and every
// algorithm-level explicit-abort payload maps to exactly one taxonomy
// label, and that the mapping is exhaustive against the obs.Cause enum:
// every cause except the two non-HTM ones (CauseNone, CauseSTMValidation)
// is reachable from some (code, arg) pair.
func TestAbortCauseMapping(t *testing.T) {
	produced := map[obs.Cause][]string{}
	record := func(desc string, a *Abort) {
		c := a.Cause()
		if c == obs.CauseNone || c == obs.CauseSTMValidation || c >= obs.NumCauses {
			t.Errorf("%s maps to non-HTM cause %v", desc, c)
		}
		produced[c] = append(produced[c], desc)
	}
	for _, code := range []Code{Conflict, Capacity, Spurious} {
		// Non-explicit codes must classify identically whatever the arg.
		base := (&Abort{Code: code}).Cause()
		for _, arg := range protocolArgs {
			if got := (&Abort{Code: code, Arg: arg}).Cause(); got != base {
				t.Errorf("code %v classification depends on arg %d: %v vs %v", code, arg, got, base)
			}
		}
		record(code.String(), &Abort{Code: code})
	}
	for _, arg := range protocolArgs {
		record("explicit("+(&Abort{Code: Explicit, Arg: arg}).Error()+")", &Abort{Code: Explicit, Arg: arg})
	}

	// Each (code, arg) pair above is one abort source; exactly one label
	// each means no label collision *within* the explicit args.
	explicitCauses := map[obs.Cause]bool{}
	for _, arg := range protocolArgs {
		c := (&Abort{Code: Explicit, Arg: arg}).Cause()
		if explicitCauses[c] {
			t.Errorf("two explicit payloads map to the same cause %v", c)
		}
		explicitCauses[c] = true
	}

	// Exhaustiveness against the enum: every HTM-reachable cause must be
	// produced. This test fails when a new Cause is added to the taxonomy
	// without a corresponding abort source (or vice versa).
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		if c == obs.CauseNone || c == obs.CauseSTMValidation {
			if len(produced[c]) != 0 {
				t.Errorf("non-HTM cause %v produced by %v", c, produced[c])
			}
			continue
		}
		if len(produced[c]) == 0 {
			t.Errorf("taxonomy cause %v unreachable from any (code, arg) pair — extend the mapping or the test's abort sources", c)
		}
	}
}

// TestCanonicalArgsDistinct pins the canonical payload values: they are
// part of the trace schema (docs/METRICS.md) and must stay distinct and
// stable.
func TestCanonicalArgsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for _, arg := range []uint64{ArgHTMLockTaken, ArgClockLocked, ArgSerialTaken, ArgWrongPhase, ArgStripeConflict} {
		if arg == 0 || seen[arg] {
			t.Fatalf("canonical args must be distinct and non-zero, got %d twice or zero", arg)
		}
		seen[arg] = true
	}
}
