// Package gate evaluates SLO specifications over benchmark and service
// dumps: the conformance matrix's pass/fail layer. A spec (rhgate-spec.v2)
// declares named gates, each binding a logical dump (an rhbench.v2 file
// from rhbench/rhload or an rhserve.v1 file from the KV service) to a set
// of cells — (workload × algo × threads) selectors carrying absolute SLO
// bounds: throughput floors, p99 latency ceilings, abort-rate budgets, and
// invariant-violation budgets. Evaluate renders one verdict per cell;
// cmd/rhgate turns the report into text, markdown (for CI job summaries)
// and machine-readable rhgate.v1 JSON, exiting non-zero on any red cell.
// Every bound is on the dump alone: whether a commit is faster or slower
// than its parent is answered by `sh benchmark/run.sh --compare`, not here.
package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// SpecSchemaVersion identifies the gate-spec format. Same versioning
// contract as the dump schemas (docs/METRICS.md): additive optional
// fields do not bump the version; v2 removed v1's baseline comparison (a
// gate's baseline file with its normalize, tolerance and per-baseline-point
// cells, and a cell's baseline-ratio floor), and the strict decode rejects
// those fields by name.
const SpecSchemaVersion = "rhgate-spec.v2"

// Spec is a versioned collection of gates, typically one file per CI
// pipeline (gates/ci.json).
type Spec struct {
	// SchemaVersion is always SpecSchemaVersion ("rhgate-spec.v2").
	SchemaVersion string `json:"schema_version"`
	// Gates are evaluated independently; the report fails if any does.
	Gates []Gate `json:"gates"`
}

// Gate binds one dump to a set of SLO cells.
type Gate struct {
	// Name identifies the gate in reports and in cmd/rhgate's -gates
	// subset filter.
	Name string `json:"name"`
	// Description explains what regression this gate catches.
	Description string `json:"description,omitempty"`
	// Dump is the logical dump name, bound to a file at evaluation time
	// (cmd/rhgate -dump name=path). Several gates may share one dump.
	Dump string `json:"dump"`
	// Kind selects the dump schema: "rhbench" (rhbench.v2, from rhbench
	// -json or rhload -json) or "rhserve" (rhserve.v1, the service's
	// /metrics snapshot).
	Kind string `json:"kind"`
	// Cells are the SLO selectors; a gate has at least one.
	Cells []CellSpec `json:"cells"`
}

// CellSpec selects dump points and bounds them. An empty selector field
// matches everything, so one cell can bound a whole dump (e.g. a
// zero-violations budget over every scenario × algo × thread count).
type CellSpec struct {
	// Workload selects rhbench points by workload name, or rhserve
	// endpoint rows by endpoint name ("" = every one in the dump).
	Workload string `json:"workload,omitempty"`
	// Algo selects rhbench points (or the rhserve dump) by algorithm
	// name ("" = any).
	Algo string `json:"algo,omitempty"`
	// Threads selects rhbench points by thread count (0 = all).
	Threads int `json:"threads,omitempty"`
	// SLO holds the bounds every selected point must satisfy.
	SLO SLO `json:"slo"`
}

// SLO is the per-cell bound set. Zero-valued (or nil) bounds are not
// checked, so a cell enforces only what it declares.
type SLO struct {
	// MinOpsPerSec is an absolute throughput floor (rhbench: the point's
	// ops_per_sec; rhserve: the endpoint's requests/uptime).
	MinOpsPerSec float64 `json:"min_ops_per_sec,omitempty"`
	// MaxP99Ms is a ceiling on the p99 latency in milliseconds
	// (rhbench: the obs "attempt" phase — the whole transaction, so the
	// dump must have been made with -obs; rhserve: the endpoint's
	// service latency, which includes queueing).
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// MaxAbortRate is a ceiling on the HTM abort rate,
	// aborts/(aborts+commits); pointer so a zero budget is expressible.
	MaxAbortRate *float64 `json:"max_abort_rate,omitempty"`
	// MaxViolations is a ceiling on the invariant-violation count;
	// pointer so the usual zero budget is expressible. Only
	// oracle-carrying workloads (the conformance scenarios) report the
	// count — bounding a workload without one fails the cell.
	MaxViolations *uint64 `json:"max_violations,omitempty"`
}

// LoadSpec reads and validates a gate spec.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// ParseSpec decodes and validates a gate spec. Unknown fields are
// rejected so the Go structs stay the schema's single source of truth.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec does not parse as %s: %w", SpecSchemaVersion, err)
	}
	if s.SchemaVersion != SpecSchemaVersion {
		return nil, fmt.Errorf("spec schema_version = %q, want %q", s.SchemaVersion, SpecSchemaVersion)
	}
	if len(s.Gates) == 0 {
		return nil, fmt.Errorf("spec has no gates")
	}
	seen := map[string]bool{}
	for i := range s.Gates {
		g := &s.Gates[i]
		if err := validateGate(g); err != nil {
			return nil, fmt.Errorf("gate %d (%s): %w", i, g.Name, err)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("duplicate gate name %q", g.Name)
		}
		seen[g.Name] = true
	}
	return &s, nil
}

func validateGate(g *Gate) error {
	if g.Name == "" {
		return fmt.Errorf("empty name")
	}
	if g.Dump == "" {
		return fmt.Errorf("empty dump binding")
	}
	if g.Kind != "rhbench" && g.Kind != "rhserve" {
		return fmt.Errorf("kind = %q, want rhbench or rhserve", g.Kind)
	}
	if len(g.Cells) == 0 {
		return fmt.Errorf("no cells: nothing to check")
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		slo := &c.SLO
		if slo.MinOpsPerSec == 0 && slo.MaxP99Ms == 0 &&
			slo.MaxAbortRate == nil && slo.MaxViolations == nil {
			return fmt.Errorf("cell %d: empty SLO (nothing to check)", i)
		}
		if r := slo.MaxAbortRate; r != nil && (*r < 0 || *r > 1) {
			return fmt.Errorf("cell %d: max_abort_rate = %g, want in [0,1]", i, *r)
		}
		if g.Kind == "rhserve" {
			if slo.MaxViolations != nil {
				return fmt.Errorf("cell %d: violation bounds do not apply to rhserve dumps", i)
			}
			if c.Threads != 0 {
				return fmt.Errorf("cell %d: rhserve rows carry no thread count", i)
			}
		}
	}
	return nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
