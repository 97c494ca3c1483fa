package obs

// FilterKind labels one group-commit outcome (the flat-combining ring of
// internal/mem, whose holders admit queued commits by signature
// disjointness). These are counter-only ledger cells: they fire on the
// slow-path commit, too often to ring.
type FilterKind uint8

const (
	// FilterCombinedCommit: a transaction committed by having its write set
	// drained from the combining ring by a group-commit holder.
	FilterCombinedCommit FilterKind = iota
	// FilterCombineDrain: a group-commit holder drained at least one queued
	// commit under its ticket window.
	FilterCombineDrain
	// FilterCombineReject: a queued commit was claimed but not published
	// (signature overlap with the group, or the group aborted) and had to
	// restart.
	FilterCombineReject

	// NumFilterKinds bounds the enum; every valid kind is < NumFilterKinds.
	NumFilterKinds
)

var filterKindNames = [NumFilterKinds]string{
	FilterCombinedCommit: "combined-commit",
	FilterCombineDrain:   "combine-drain",
	FilterCombineReject:  "combine-reject",
}

// String returns the stable schema name of the kind (docs/METRICS.md
// documents the enum; downstream tooling keys on these strings).
func (k FilterKind) String() string {
	if k < NumFilterKinds {
		return filterKindNames[k]
	}
	return "invalid"
}

// FilterKindByName returns the FilterKind with the given schema name.
func FilterKindByName(name string) (FilterKind, bool) {
	for k, n := range filterKindNames {
		if n == name {
			return FilterKind(k), true
		}
	}
	return 0, false
}

// RecordFilter accounts one group-commit outcome.
func (r *Recorder) RecordFilter(k FilterKind) {
	if r == nil || k >= NumFilterKinds {
		return
	}
	r.filterCount[k]++
}

// FilterCount reports the recorded occurrences of one kind.
func (r *Recorder) FilterCount(k FilterKind) uint64 {
	if r == nil || k >= NumFilterKinds {
		return 0
	}
	return r.filterCount[k]
}

// FilterSnapshot is one group-commit counter.
type FilterSnapshot struct {
	// Kind is the schema name of the counter (FilterKind.String).
	Kind string `json:"kind"`
	// Count is the number of times the outcome fired.
	Count uint64 `json:"count"`
}
