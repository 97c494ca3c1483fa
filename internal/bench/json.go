package bench

import (
	"encoding/json"
	"io"

	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// SchemaVersion identifies the rhbench JSON dump format. Versioning
// contract (docs/METRICS.md): additive, optional fields do not bump the
// version; renaming, removing, or changing the meaning of a field does.
//
// History: rhbench.v1 was a bare JSON array of points; rhbench.v2 wraps
// the points in a versioned envelope and adds the optional per-point
// "obs" observability snapshot.
const SchemaVersion = "rhbench.v2"

// JSONDump is the versioned envelope of a machine-readable rhbench run.
type JSONDump struct {
	// SchemaVersion is always SchemaVersion ("rhbench.v2").
	SchemaVersion string `json:"schema_version"`
	// Points holds one entry per benchmark point, in completion order.
	// Never null: an empty run dumps an empty array.
	Points []JSONPoint `json:"points"`
}

// JSONPoint is the machine-readable form of one benchmark point: one
// (workload, algorithm, thread-count) cell of a figure. Field names are
// stable — downstream plotting scripts key on them.
type JSONPoint struct {
	Workload   string  `json:"workload"`
	Algo       string  `json:"algo"`
	Threads    int     `json:"threads"`
	Ops        uint64  `json:"ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// Obs is the merged observability snapshot (phase latency histograms
	// and the abort-cause taxonomy); present only when the run was made
	// with -obs.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// TM summarizes the point's transactional counters; present whenever
	// the harness ran a TM system underneath (absent from rhload's
	// client-side cells, whose server publishes its own rhserve.v1 dump).
	TM *JSONTM `json:"tm,omitempty"`
	// Violations counts the workload oracle's verdicts against the point
	// (Result.Violations). Record always writes it, zero included, and
	// ValidateDump requires it; the pointer tells a dump without the field
	// apart from a clean one. The SLO gate (cmd/rhgate) keys its
	// zero-violations budget on this field.
	Violations *uint64 `json:"violations,omitempty"`
	// CheckError is the end-of-run invariant check's failure message
	// (empty on a clean pass). A failed check also counts in Violations.
	CheckError string `json:"check_error,omitempty"`
}

// JSONTM is a benchmark point's transactional summary: enough for the SLO
// gate's abort-rate budgets without shipping the whole obs snapshot.
type JSONTM struct {
	Commits     uint64 `json:"commits"`
	ReadOnly    uint64 `json:"read_only_commits"`
	HTMAborts   uint64 `json:"htm_aborts"`
	STMRestarts uint64 `json:"stm_restarts"`
	Fallbacks   uint64 `json:"fallbacks"`
	// PrefixReads, SegmentReads and SoftwareReads say where the mixed slow
	// path's reads ran (tm.Stats): in committed HTM prefixes, in the
	// committed read segments chained behind them, or instrumented in
	// software. Zero, and omitted, for every driver but RH NOrec.
	PrefixReads   uint64 `json:"prefix_reads,omitempty"`
	SegmentReads  uint64 `json:"segment_reads,omitempty"`
	SoftwareReads uint64 `json:"software_reads,omitempty"`
	// AbortRate is HTMAborts/(HTMAborts+Commits), the serve-layer
	// definition (internal/serve metrics).
	AbortRate float64 `json:"abort_rate"`
}

// JSONRecorder accumulates benchmark points for a machine-readable dump.
// Chain its Record method into FigureConfig.Progress.
type JSONRecorder struct {
	points []JSONPoint
}

// Record appends one finished point. It has the FigureConfig.Progress
// signature so it can be chained directly.
func (rec *JSONRecorder) Record(r Result) {
	violations := r.Violations
	rec.points = append(rec.points, JSONPoint{
		Workload:   r.Workload,
		Algo:       r.Algo,
		Threads:    r.Threads,
		Ops:        r.Ops,
		ElapsedSec: r.Elapsed.Seconds(),
		OpsPerSec:  r.Throughput,
		Obs:        r.Obs,
		TM:         tmBlock(&r.Stats),
		Violations: &violations,
		CheckError: r.CheckError,
	})
}

// tmBlock summarizes a point's counters; nil when the point ran no
// transactions (e.g. rhload's client-side cells).
func tmBlock(st *tm.Stats) *JSONTM {
	aborts := st.HTMAborts()
	if st.Commits == 0 && st.ReadOnlyCommits == 0 && aborts == 0 && st.STMRestarts == 0 {
		return nil
	}
	var rate float64
	if aborts+st.Commits > 0 {
		rate = float64(aborts) / float64(aborts+st.Commits)
	}
	return &JSONTM{
		Commits:       st.Commits,
		ReadOnly:      st.ReadOnlyCommits,
		HTMAborts:     aborts,
		STMRestarts:   st.STMRestarts,
		Fallbacks:     st.Fallbacks,
		PrefixReads:   st.PrefixReads,
		SegmentReads:  st.SegmentReads,
		SoftwareReads: st.SoftwareReads,
		AbortRate:     rate,
	}
}

// Len reports how many points have been recorded.
func (rec *JSONRecorder) Len() int { return len(rec.points) }

// WriteJSON emits the versioned dump, indented. An empty recorder writes
// an envelope with an empty points array, never null.
func (rec *JSONRecorder) WriteJSON(w io.Writer) error {
	pts := rec.points
	if pts == nil {
		pts = []JSONPoint{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSONDump{SchemaVersion: SchemaVersion, Points: pts})
}

// WriteTraces emits a JSON array of per-point event-ring traces (the
// `rhbench -trace` file format, replayed by cmd/rhtrace). An empty slice
// writes an empty array, never null.
func WriteTraces(w io.Writer, traces []obs.Trace) error {
	if traces == nil {
		traces = []obs.Trace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}
