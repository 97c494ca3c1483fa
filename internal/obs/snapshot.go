package obs

// Snapshot is the JSON form of a merged Recorder: what `rhbench -obs`
// embeds in each benchmark point. Field names are stable and versioned by
// the enclosing dump's schema_version (docs/METRICS.md documents every
// field, its units, and the enums).
type Snapshot struct {
	// Phases holds one entry per phase that recorded at least one sample,
	// in Phase enum order.
	Phases []PhaseSnapshot `json:"phases"`
	// Aborts holds one entry per abort cause observed at least once, in
	// Cause enum order.
	Aborts []AbortSnapshot `json:"aborts"`
}

// PhaseSnapshot is one phase's latency distribution. All durations are
// nanoseconds.
type PhaseSnapshot struct {
	// Phase is the schema name of the phase (Phase.String).
	Phase string `json:"phase"`
	// Count is the number of samples.
	Count uint64 `json:"count"`
	// SumNS is the exact sum of all samples.
	SumNS uint64 `json:"sum_ns"`
	// MaxNS is the exact largest sample.
	MaxNS uint64 `json:"max_ns"`
	// P50NS/P90NS/P99NS are quantile estimates, resolved to power-of-two
	// bucket midpoints (≤ 50% relative error, capped by MaxNS).
	P50NS uint64 `json:"p50_ns"`
	P90NS uint64 `json:"p90_ns"`
	P99NS uint64 `json:"p99_ns"`
	// Buckets are the non-empty power-of-two buckets, ascending.
	Buckets []Bucket `json:"buckets"`
}

// AbortSnapshot is one abort-taxonomy cell.
type AbortSnapshot struct {
	// Cause is the schema name of the cause (Cause.String).
	Cause string `json:"cause"`
	// Count is the number of aborts with this cause.
	Count uint64 `json:"count"`
	// RetryMean is the mean 1-based attempt ordinal at which the aborts
	// struck (1 = first attempt).
	RetryMean float64 `json:"retry_mean"`
	// RetryMax is the largest observed attempt ordinal.
	RetryMax uint64 `json:"retry_max"`
}

// Snapshot renders the recorder for the JSON dump. A nil recorder yields
// an empty (but non-nil) snapshot.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Phases: []PhaseSnapshot{}, Aborts: []AbortSnapshot{}}
	if r == nil {
		return s
	}
	for p := Phase(0); p < NumPhases; p++ {
		h := &r.phases[p]
		if h.Count() == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseSnapshot{
			Phase:   p.String(),
			Count:   h.Count(),
			SumNS:   h.Sum(),
			MaxNS:   h.Max(),
			P50NS:   h.Quantile(0.50),
			P90NS:   h.Quantile(0.90),
			P99NS:   h.Quantile(0.99),
			Buckets: h.Buckets(),
		})
	}
	for c := Cause(0); c < NumCauses; c++ {
		if r.abortCount[c] == 0 {
			continue
		}
		s.Aborts = append(s.Aborts, AbortSnapshot{
			Cause:     c.String(),
			Count:     r.abortCount[c],
			RetryMean: r.abortRetry[c].Mean(),
			RetryMax:  r.abortRetry[c].Max(),
		})
	}
	return s
}
