package obs

// EventKind labels one entry of the per-thread event ring.
type EventKind uint8

const (
	// EventBegin marks the start of one Run/RunReadOnly invocation.
	EventBegin EventKind = iota + 1
	// EventAbort marks one hardware abort (Cause from the taxonomy, Retry
	// the 1-based ordinal of the failed attempt) or a software restart
	// (CauseSTMValidation).
	EventAbort
	// EventFallback marks the transition from the hardware fast path to
	// the software/mixed slow path (the numerator of the paper's slow-path
	// ratio row).
	EventFallback
	// EventCommit marks a commit; Path tells which execution path it
	// committed on.
	EventCommit

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EventBegin:    "begin",
	EventAbort:    "abort",
	EventFallback: "fallback",
	EventCommit:   "commit",
}

// String returns the stable schema name of the kind.
func (k EventKind) String() string {
	if k > 0 && k < numEventKinds {
		return eventKindNames[k]
	}
	return "invalid"
}

// Path labels the execution path an event happened on.
type Path uint8

const (
	// PathNone is for events with no path attribution.
	PathNone Path = iota
	// PathFast is the pure hardware fast path.
	PathFast
	// PathSlow is the software or mixed slow path.
	PathSlow
	// PathSerial is execution under the serial/global lock.
	PathSerial

	numPaths
)

var pathNames = [numPaths]string{
	PathNone:   "",
	PathFast:   "fast",
	PathSlow:   "slow",
	PathSerial: "serial",
}

// String returns the stable schema name of the path ("" for PathNone).
func (p Path) String() string {
	if p < numPaths {
		return pathNames[p]
	}
	return "invalid"
}

// Event is one fixed-size ring entry. T is a logical timestamp: the mem
// commit ticket at recording time (monotonic; every publish advances it by
// 1), so events from different threads order consistently with the
// committed history without any wall-clock coordination.
type Event struct {
	// T is the logical timestamp (mem commit ticket).
	T uint64
	// Kind is the event kind.
	Kind EventKind
	// Cause is the abort taxonomy label (abort events; CauseNone otherwise).
	Cause Cause
	// Path is the execution path (commit events; PathNone otherwise).
	Path Path
	// Retry is the 1-based attempt ordinal for abort events.
	Retry uint16
}

// Ring is a fixed-size per-thread event buffer: Record overwrites the
// oldest entry when full, so a run of any length keeps its most recent
// RingSize events per thread. Recording is allocation-free; the harness
// drains rings after workers stop.
type Ring struct {
	buf []Event
	n   uint64 // total events ever recorded
}

// NewRing creates a ring holding size events (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]Event, size)}
}

// Record appends one event, overwriting the oldest when the ring is full.
func (r *Ring) Record(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Len reports the number of events currently held (≤ capacity).
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped reports how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the held events, oldest first. The slice is freshly
// allocated (drain-time only; never on the hot path).
func (r *Ring) Events() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	start := r.n - uint64(n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+uint64(i))%uint64(len(r.buf))])
	}
	return out
}
