package obs

// Cause is the abort-event taxonomy: the join of the simulated hardware's
// abort status (htm.Code, mirroring the RTM status bits of paper §3.2–§3.3)
// with the algorithm-level reason carried in the XABORT payload. Every
// hardware abort in the system maps to exactly one Cause (package htm owns
// the mapping at the Device boundary, htm.(*Abort).Cause); software-path
// restarts map to CauseSTMValidation.
type Cause uint8

const (
	// CauseNone is the reserved zero value (events that carry no cause,
	// e.g. begin and commit ring events).
	CauseNone Cause = iota
	// CauseConflict: the hardware abort status reported a data conflict
	// (htm.Conflict) — another thread's commit or plain store invalidated
	// the read/write set. The paper's Figure 4–6 "HTM conflict aborts"
	// series counts these.
	CauseConflict
	// CauseCapacity: the read or write set overflowed the transactional
	// cache (htm.Capacity) — the paper's "HTM capacity aborts" series and
	// its NO_RETRY fallback trigger (§3.3).
	CauseCapacity
	// CauseSpurious: an environmental abort (htm.Spurious — interrupt,
	// page fault, TLB miss).
	CauseSpurious
	// CauseHTMLockTaken: explicit abort because the global HTM lock (or
	// Lock Elision's global lock) was held — the fast path's subscription
	// check failed (Algorithm 1 line 3; htm.ArgHTMLockTaken).
	CauseHTMLockTaken
	// CauseClockLocked: explicit abort because the NOrec global clock was
	// locked by a software writer at the fast path's commit point
	// (Algorithm 1 lines 29–32; htm.ArgClockLocked).
	CauseClockLocked
	// CauseSerialTaken: explicit abort because the serial starvation lock
	// of §3.3 was held (htm.ArgSerialTaken).
	CauseSerialTaken
	// CauseWrongPhase: explicit abort because PhasedTM's phase subscription
	// found the system in (or entering) a software phase
	// (htm.ArgWrongPhase).
	CauseWrongPhase
	// CauseStripeConflict: explicit abort because an RH-TL2 hardware
	// transaction met a stripe that was locked by a software commit or newer
	// than its read version (htm.ArgStripeConflict).
	CauseStripeConflict
	// CauseExplicitOther: an explicit abort whose payload is not one of the
	// canonical protocol arguments (application XABORTs).
	CauseExplicitOther
	// CauseSTMValidation: a software-path restart — the NOrec value
	// validation failed or the global clock moved under a read (the
	// "restarts per slow-path transaction" row of Figures 4–6).
	CauseSTMValidation

	// NumCauses bounds the enum; every valid Cause is < NumCauses.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseNone:           "none",
	CauseConflict:       "conflict",
	CauseCapacity:       "capacity",
	CauseSpurious:       "spurious",
	CauseHTMLockTaken:   "htm-lock-taken",
	CauseClockLocked:    "clock-locked",
	CauseSerialTaken:    "serial-taken",
	CauseWrongPhase:     "wrong-phase",
	CauseStripeConflict: "stripe-conflict",
	CauseExplicitOther:  "explicit-other",
	CauseSTMValidation:  "stm-validation",
}

// String returns the stable schema name of the cause (docs/METRICS.md
// documents the full enum; downstream tooling keys on these strings).
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// CauseByName returns the Cause with the given schema name.
func CauseByName(name string) (Cause, bool) {
	for c, n := range causeNames {
		if n == name {
			return Cause(c), true
		}
	}
	return CauseNone, false
}

// Phase labels one timed section of a transaction's execution. The
// transaction skeleton (internal/tm/run.go) stamps the attempt, fast,
// software, writeback and serial phases identically for every driver; RH
// NOrec adds its prefix and postfix. docs/METRICS.md defines each phase's
// exact boundaries.
type Phase uint8

const (
	// PhaseAttempt is one whole Run/RunReadOnly invocation: first hardware
	// attempt through final commit (or user abort), retries included.
	PhaseAttempt Phase = iota
	// PhaseFast is one hardware fast-path attempt (Algorithm 1), begin to
	// commit or abort.
	PhaseFast
	// PhasePrefix is RH NOrec's HTM prefix (Algorithm 3 lines 9–26): Begin
	// to successful prefix commit. Aborted prefixes surface as abort
	// events, not histogram samples.
	PhasePrefix
	// PhaseSoftware is the instrumented software section of one committed
	// slow-path attempt: snapshot (or prefix hand-off) to the start of
	// commit publication.
	PhaseSoftware
	// PhasePostfix is RH NOrec's HTM postfix (Algorithm 2 lines 25–31):
	// Begin at the first write to the postfix's commit.
	PhasePostfix
	// PhaseWriteback is commit publication: the clock bump and (for lazy
	// variants) the buffered write-back.
	PhaseWriteback
	// PhaseSerial is execution under the serial starvation lock (§3.3) or
	// Lock Elision's acquired global lock.
	PhaseSerial

	// NumPhases bounds the enum; every valid Phase is < NumPhases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseAttempt:   "attempt",
	PhaseFast:      "fast",
	PhasePrefix:    "prefix",
	PhaseSoftware:  "software",
	PhasePostfix:   "postfix",
	PhaseWriteback: "writeback",
	PhaseSerial:    "serial",
}

// String returns the stable schema name of the phase.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// PhaseByName returns the Phase with the given schema name.
func PhaseByName(name string) (Phase, bool) {
	for p, n := range phaseNames {
		if n == name {
			return Phase(p), true
		}
	}
	return 0, false
}
