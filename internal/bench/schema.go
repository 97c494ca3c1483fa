package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"rhnorec/internal/obs"
)

// LoadDump reads and schema-validates an rhbench -json dump.
func LoadDump(path string) (*JSONDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := ValidateDump(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// ValidateDump already decoded successfully; decode again for the value.
	var dump JSONDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &dump, nil
}

// ValidateDump checks a versioned JSON dump against its schema, dispatching
// on the envelope's schema_version: rhbench.v2 dumps (rhbench -json) get the
// benchmark-point rules below, rhserve.v1 dumps (the KV service's /metrics
// snapshot, serve.go) get the service rules. For rhbench.v2 that means the
// versioned envelope, the required per-point fields and their ranges, and —
// when a point carries an obs snapshot — the phase/cause enum names and the
// internal consistency of each histogram (bucket counts summing to the
// sample count, ordered quantiles). Field-name drift is caught by decoding
// with unknown fields disallowed, so the Go structs in this package stay
// the single source of truth for both schemas. CI runs this over real dumps
// (the obs-smoke and serve-smoke jobs) so the documented schemas and the
// emitted ones cannot diverge.
func ValidateDump(data []byte) error {
	var probe struct {
		SchemaVersion string `json:"schema_version"`
	}
	// A probe that does not parse falls through to the rhbench.v2 decoder,
	// whose error names the expected format.
	if err := json.Unmarshal(data, &probe); err == nil && probe.SchemaVersion == ServeSchemaVersion {
		return validateServeDump(data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var dump JSONDump
	if err := dec.Decode(&dump); err != nil {
		return fmt.Errorf("dump does not parse as %s: %w", SchemaVersion, err)
	}
	if dump.SchemaVersion != SchemaVersion {
		return fmt.Errorf("schema_version = %q, want %q", dump.SchemaVersion, SchemaVersion)
	}
	if dump.Points == nil {
		return fmt.Errorf("points is null, want an array")
	}
	for i, p := range dump.Points {
		if err := validatePoint(&p); err != nil {
			return fmt.Errorf("point %d (%s/%s/t=%d): %w", i, p.Workload, p.Algo, p.Threads, err)
		}
	}
	return nil
}

func validatePoint(p *JSONPoint) error {
	if p.Workload == "" {
		return fmt.Errorf("empty workload")
	}
	if p.Algo == "" {
		return fmt.Errorf("empty algo")
	}
	if p.Threads < 1 {
		return fmt.Errorf("threads = %d, want >= 1", p.Threads)
	}
	if p.ElapsedSec <= 0 {
		return fmt.Errorf("elapsed_sec = %g, want > 0", p.ElapsedSec)
	}
	if p.OpsPerSec < 0 {
		return fmt.Errorf("ops_per_sec = %g, want >= 0", p.OpsPerSec)
	}
	if p.Obs != nil {
		if err := validateSnapshot(p.Obs); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	if p.TM != nil {
		t := p.TM
		if t.AbortRate < 0 || t.AbortRate > 1 {
			return fmt.Errorf("tm: abort_rate = %g, want in [0,1]", t.AbortRate)
		}
		if t.Commits == 0 && t.ReadOnly == 0 && t.HTMAborts == 0 && t.STMRestarts == 0 {
			return fmt.Errorf("tm: all-zero block (zero blocks are omitted)")
		}
		if t.SegmentReads > 0 && t.PrefixReads == 0 {
			return fmt.Errorf("tm: segment_reads = %d with no prefix_reads (a read segment only follows a committed prefix)", t.SegmentReads)
		}
	}
	if p.Violations == nil {
		return fmt.Errorf("no violations field (every point carries its oracle's count)")
	}
	return nil
}

func validateSnapshot(s *obs.Snapshot) error {
	if s.Phases == nil || s.Aborts == nil {
		return fmt.Errorf("phases/aborts must be arrays, not null")
	}
	for _, ph := range s.Phases {
		if _, ok := obs.PhaseByName(ph.Phase); !ok {
			return fmt.Errorf("unknown phase %q", ph.Phase)
		}
		if ph.Count == 0 {
			return fmt.Errorf("phase %s: zero count (empty phases are omitted)", ph.Phase)
		}
		if ph.MaxNS > ph.SumNS {
			return fmt.Errorf("phase %s: max_ns %d > sum_ns %d", ph.Phase, ph.MaxNS, ph.SumNS)
		}
		if ph.P50NS > ph.P90NS || ph.P90NS > ph.P99NS || ph.P99NS > ph.MaxNS {
			return fmt.Errorf("phase %s: quantiles not ordered (p50=%d p90=%d p99=%d max=%d)",
				ph.Phase, ph.P50NS, ph.P90NS, ph.P99NS, ph.MaxNS)
		}
		var total uint64
		var prevLow uint64
		for i, b := range ph.Buckets {
			if i > 0 && b.LowNS <= prevLow {
				return fmt.Errorf("phase %s: bucket lows not ascending", ph.Phase)
			}
			prevLow = b.LowNS
			if b.Count == 0 {
				return fmt.Errorf("phase %s: empty bucket at lo_ns=%d (empty buckets are omitted)", ph.Phase, b.LowNS)
			}
			total += b.Count
		}
		if total != ph.Count {
			return fmt.Errorf("phase %s: bucket counts sum to %d, count says %d", ph.Phase, total, ph.Count)
		}
	}
	for _, ab := range s.Aborts {
		c, ok := obs.CauseByName(ab.Cause)
		if !ok {
			return fmt.Errorf("unknown abort cause %q", ab.Cause)
		}
		if c == obs.CauseNone {
			return fmt.Errorf("cause %q must not appear in a snapshot", ab.Cause)
		}
		if ab.Count == 0 {
			return fmt.Errorf("cause %s: zero count (unobserved causes are omitted)", ab.Cause)
		}
		if ab.RetryMean < 1 {
			return fmt.Errorf("cause %s: retry_mean %g < 1 (ordinals are 1-based)", ab.Cause, ab.RetryMean)
		}
		if ab.RetryMax < 1 || float64(ab.RetryMax) < ab.RetryMean {
			return fmt.Errorf("cause %s: retry_max %d inconsistent with retry_mean %g", ab.Cause, ab.RetryMax, ab.RetryMean)
		}
	}
	return nil
}
