package obs

import "time"

// epoch anchors Start/RecordSince timestamps; time.Since reads the
// monotonic clock without allocating.
var epoch = time.Now()

// Now returns the current monotonic timestamp in nanoseconds since the
// package epoch. Exposed for tests and tools; instrumentation sites use
// the nil-safe Recorder.Start instead.
func Now() int64 { return int64(time.Since(epoch)) }

// Config configures a Recorder.
type Config struct {
	// RingSize, when > 0, attaches a per-thread event ring holding that
	// many entries (begin/abort/fallback/commit events stamped with the
	// mem commit ticket). 0 records histograms and abort taxonomy only.
	RingSize int
}

// Recorder is one thread's observability state: per-phase latency
// histograms, the abort-cause taxonomy cells (count + retry-ordinal
// distribution per cause), and the optional event ring. A Recorder is
// attached to a thread via tm.Stats.Obs; a nil *Recorder is the disabled
// state — every method is nil-safe, so call sites pay exactly one branch
// when observability is off.
//
// Recorders are single-threaded like the Stats they ride on; the harness
// merges them after workers stop.
type Recorder struct {
	phases     [NumPhases]Histogram
	abortCount [NumCauses]uint64
	abortRetry [NumCauses]Histogram
	ring       *Ring
}

// NewRecorder creates a Recorder per cfg.
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{}
	if cfg.RingSize > 0 {
		r.ring = NewRing(cfg.RingSize)
	}
	return r
}

// Start returns a timestamp for a later RecordSince, or 0 when disabled.
func (r *Recorder) Start() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(epoch))
}

// RecordSince records the elapsed time since start (a Start result) into
// the phase's latency histogram. No-op when disabled.
func (r *Recorder) RecordSince(p Phase, start int64) {
	if r == nil {
		return
	}
	d := int64(time.Since(epoch)) - start
	if d < 0 {
		d = 0
	}
	r.phases[p].Record(uint64(d))
}

// RecordPhase records one pre-measured phase duration in nanoseconds.
func (r *Recorder) RecordPhase(p Phase, ns uint64) {
	if r == nil {
		return
	}
	r.phases[p].Record(ns)
}

// PhaseHist exposes a phase's histogram for inspection (nil when disabled).
func (r *Recorder) PhaseHist(p Phase) *Histogram {
	if r == nil {
		return nil
	}
	return &r.phases[p]
}

// RecordAbort accounts one abort event: the taxonomy cell for its cause,
// the retry-ordinal distribution, and (when a ring is attached) an abort
// ring event stamped with logical time now. retry is the 1-based ordinal
// of the failed attempt.
func (r *Recorder) RecordAbort(c Cause, retry int, now uint64) {
	if r == nil {
		return
	}
	if c >= NumCauses {
		c = CauseExplicitOther
	}
	r.abortCount[c]++
	r.abortRetry[c].Record(uint64(retry))
	if r.ring != nil {
		r.ring.Record(Event{T: now, Kind: EventAbort, Cause: c, Retry: uint16(min(retry, 1<<16-1))})
	}
}

// RecordEvent appends a begin/fallback/commit event to the ring (if any).
func (r *Recorder) RecordEvent(k EventKind, p Path, now uint64) {
	if r == nil || r.ring == nil {
		return
	}
	r.ring.Record(Event{T: now, Kind: k, Path: p})
}

// AbortCount reports the recorded aborts for one cause.
func (r *Recorder) AbortCount(c Cause) uint64 {
	if r == nil {
		return 0
	}
	return r.abortCount[c]
}

// Ring exposes the event ring (nil when disabled or not configured).
func (r *Recorder) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Clone returns an independent copy of the recorder's histograms and
// counter ledgers for cross-goroutine merging, deliberately without the
// event ring: rings are per-thread and are drained, not merged, and sharing
// the ring pointer would race the owner's recording. A long-running service
// (internal/serve) snapshots live workers this way — the owner keeps
// recording into the original while the clone is merged elsewhere.
func (r *Recorder) Clone() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{
		phases:     r.phases,
		abortCount: r.abortCount,
		abortRetry: r.abortRetry,
	}
}

// Merge accumulates o's histograms and taxonomy cells into r. Rings are
// per-thread and are not merged — drain them individually. Merging a nil
// o is a no-op; merging into a nil r panics (aggregate into a fresh
// Recorder, see tm.Stats.Add).
func (r *Recorder) Merge(o *Recorder) {
	if o == nil {
		return
	}
	for i := range r.phases {
		r.phases[i].Merge(&o.phases[i])
	}
	for i := range r.abortCount {
		r.abortCount[i] += o.abortCount[i]
		r.abortRetry[i].Merge(&o.abortRetry[i])
	}
}
