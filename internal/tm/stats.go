package tm

import (
	"reflect"

	"rhnorec/internal/obs"
)

// Stats counts the events behind the analysis rows of the paper's Figures
// 4–6 (slow-path ratio, HTM aborts per operation, restarts per slow-path
// transaction, prefix/postfix success). Each Thread owns one instance and
// updates it without atomics (a thread is single-goroutine by contract);
// the harness aggregates snapshots after workers stop via Add.
type Stats struct {
	// Commits is the number of transactions that completed, on any path
	// (the denominator of every per-operation row of Figures 4–6).
	Commits uint64
	// ReadOnlyCommits counts commits of transactions run via RunReadOnly —
	// the paper's statically-read-only compiler hint (§2.3) mapped to an
	// explicit entry point.
	ReadOnlyCommits uint64
	// UserAborts counts transactions whose callback returned an error.
	UserAborts uint64

	// FastPathCommits counts transactions committed entirely in (simulated)
	// hardware; SlowPathCommits those committed on the software or mixed
	// slow path; SerialCommits those that needed the serial lock or the
	// global lock (Lock Elision's fallback).
	FastPathCommits uint64
	SlowPathCommits uint64
	SerialCommits   uint64

	// Fallbacks counts transactions that gave up on the fast path and
	// entered the slow path (the numerator of the paper's "slow-path
	// execution ratio" row).
	Fallbacks uint64

	// HTM abort counters, across fast paths and the RH small transactions
	// (the paper's "HTM conflict/capacity aborts per operation" row).
	HTMConflictAborts uint64
	HTMCapacityAborts uint64
	HTMExplicitAborts uint64
	HTMSpuriousAborts uint64

	// SlowPathStarts counts slow-path attempts begun; SlowPathRestarts
	// counts restarts of slow-path attempts (the "restarts per slow-path
	// transaction" row).
	SlowPathStarts   uint64
	SlowPathRestarts uint64

	// RH NOrec small-transaction outcomes (the "prefix/postfix success
	// ratios" row). Zero for every other algorithm.
	PrefixAttempts  uint64
	PrefixCommits   uint64
	PostfixAttempts uint64
	PostfixCommits  uint64
	// Where the mixed slow path's reads ran: PrefixReads counts loads
	// retired inside prefixes that committed (uninstrumented hardware
	// reads), SoftwareReads the instrumented, clock-validated software
	// loads — attempts that later restarted included, so it prices the
	// work the path did, not only the work that committed.
	PrefixReads   uint64
	SoftwareReads uint64
	// Read segments: the clock-subscribed read-only hardware transactions
	// RH NOrec chains behind a prefix that committed at its read budget
	// (DESIGN.md §2 "Read segments"). SegmentAttempts counts segments begun,
	// SegmentCommits those that committed, SegmentReads the loads retired
	// inside committed ones — reads that would otherwise be SoftwareReads.
	SegmentAttempts uint64
	SegmentCommits  uint64
	SegmentReads    uint64

	// STM-only counters: restarts of pure-software (NOrec/TL2) attempts
	// (the software baselines of §3.1).
	STMRestarts uint64

	// Obs, when non-nil, is the thread's observability recorder: per-phase
	// latency histograms, the abort-cause taxonomy and the optional event
	// ring (package obs). The harness attaches it after NewThread
	// (Thread.Stats().Obs = ...); TM drivers consult it behind a nil
	// check, so the disabled state costs one branch per instrumentation
	// site. It is deliberately the only non-counter field of Stats — see
	// Add.
	Obs *obs.Recorder
}

// Add accumulates o into s: every uint64 counter sums, and o's
// observability recorder (if any) merges into s's. The counter sum is
// reflective so a counter added to Stats can never be silently dropped
// from aggregation; TestStatsAddAggregatesEveryField rejects any new field
// that is neither a uint64 counter nor explicitly handled here.
func (s *Stats) Add(o *Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + ov.Field(i).Uint())
		}
	}
	if o.Obs != nil {
		if s.Obs == nil {
			// Aggregates need no ring of their own: rings stay per-thread
			// and are drained, not merged.
			s.Obs = obs.NewRecorder(obs.Config{})
		}
		s.Obs.Merge(o.Obs)
	}
}

// HTMAborts returns the total hardware aborts of any kind (the sum of the
// Figures 4–6 abort series).
func (s *Stats) HTMAborts() uint64 {
	return s.HTMConflictAborts + s.HTMCapacityAborts + s.HTMExplicitAborts + s.HTMSpuriousAborts
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ConflictAbortsPerOp is the paper's figure row 2 (conflict series).
func (s *Stats) ConflictAbortsPerOp() float64 { return ratio(s.HTMConflictAborts, s.Commits) }

// CapacityAbortsPerOp is the paper's figure row 2 (capacity series).
func (s *Stats) CapacityAbortsPerOp() float64 { return ratio(s.HTMCapacityAborts, s.Commits) }

// RestartsPerSlowPath is the paper's figure row 3.
func (s *Stats) RestartsPerSlowPath() float64 { return ratio(s.SlowPathRestarts, s.SlowPathCommits) }

// SlowPathRatio is the paper's figure row 4: the fraction of transactions
// that fell back from the fast path.
func (s *Stats) SlowPathRatio() float64 { return ratio(s.Fallbacks, s.Commits) }

// PrefixSuccessRatio is part of the paper's figure row 5.
func (s *Stats) PrefixSuccessRatio() float64 { return ratio(s.PrefixCommits, s.PrefixAttempts) }

// PostfixSuccessRatio is part of the paper's figure row 5.
func (s *Stats) PostfixSuccessRatio() float64 { return ratio(s.PostfixCommits, s.PostfixAttempts) }
