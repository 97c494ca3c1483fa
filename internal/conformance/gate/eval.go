package gate

import (
	"fmt"
	"os"
	"sort"

	"rhnorec/internal/bench"
)

// ReportSchemaVersion identifies the machine-readable verdict format
// cmd/rhgate emits with -json.
const ReportSchemaVersion = "rhgate.v1"

// Report is the evaluation of a whole spec: one verdict per gate per cell
// per bound.
type Report struct {
	// SchemaVersion is always ReportSchemaVersion ("rhgate.v1").
	SchemaVersion string `json:"schema_version"`
	// Pass is the conjunction of every gate verdict.
	Pass bool `json:"pass"`
	// Gates holds one entry per evaluated gate, in spec order.
	Gates []GateReport `json:"gates"`
}

// GateReport is one gate's verdict.
type GateReport struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Pass bool   `json:"pass"`
	// Error is a gate-level failure (unbound or unreadable dump): the gate
	// fails with no cells.
	Error string `json:"error,omitempty"`
	// Cells holds one row per evaluated (selector match × point), sorted
	// by cell name, then algo, then threads.
	Cells []CellReport `json:"cells"`
}

// CellReport is one evaluated point's verdict: every bound that applied
// to it, with the measured value.
type CellReport struct {
	// Cell is the workload name (rhbench) or endpoint name (rhserve).
	Cell    string  `json:"cell"`
	Algo    string  `json:"algo,omitempty"`
	Threads int     `json:"threads,omitempty"`
	Pass    bool    `json:"pass"`
	Checks  []Check `json:"checks"`
}

// Check is one bound's verdict over one cell.
type Check struct {
	// Name is the SLO field the bound came from (min_ops_per_sec,
	// max_p99_ms, max_abort_rate, max_violations) or "present" for a cell
	// selector that matched nothing.
	Name string `json:"name"`
	// Value is the measured quantity; Bound the spec's limit.
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
	// Detail explains a failure that is not a plain value-vs-bound miss
	// (missing point, missing obs snapshot, failed invariant check).
	Detail string `json:"detail,omitempty"`
}

// Inputs binds a spec to concrete files for one evaluation.
type Inputs struct {
	// Dumps maps logical dump names (Gate.Dump) to file paths.
	Dumps map[string]string
	// Gates restricts evaluation to the named subset (nil = all).
	Gates []string
}

// Evaluate runs every (selected) gate of the spec and returns the verdict
// table. Evaluation itself never fails — a missing or unreadable dump
// fails its gate, not the call; the returned error covers only misuse
// (an unknown gate name in the subset filter).
func Evaluate(spec *Spec, in Inputs) (*Report, error) {
	selected := spec.Gates
	if len(in.Gates) > 0 {
		byName := make(map[string]*Gate, len(spec.Gates))
		for i := range spec.Gates {
			byName[spec.Gates[i].Name] = &spec.Gates[i]
		}
		selected = nil
		for _, name := range in.Gates {
			g, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("spec has no gate %q", name)
			}
			selected = append(selected, *g)
		}
	}
	rep := &Report{SchemaVersion: ReportSchemaVersion, Pass: true}
	for i := range selected {
		gr := evalGate(&selected[i], in)
		if !gr.Pass {
			rep.Pass = false
		}
		rep.Gates = append(rep.Gates, gr)
	}
	return rep, nil
}

func evalGate(g *Gate, in Inputs) GateReport {
	gr := GateReport{Name: g.Name, Kind: g.Kind, Cells: []CellReport{}}
	path, ok := in.Dumps[g.Dump]
	if !ok {
		gr.Error = fmt.Sprintf("dump %q not bound (rhgate -dump %s=PATH)", g.Dump, g.Dump)
		return gr
	}
	switch g.Kind {
	case "rhserve":
		evalServeGate(g, path, &gr)
	default:
		evalBenchGate(g, path, &gr)
	}
	gr.Pass = gr.Error == ""
	for i := range gr.Cells {
		if !gr.Cells[i].Pass {
			gr.Pass = false
		}
	}
	sort.SliceStable(gr.Cells, func(i, j int) bool {
		a, b := &gr.Cells[i], &gr.Cells[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Algo != b.Algo {
			return a.Algo < b.Algo
		}
		return a.Threads < b.Threads
	})
	return gr
}

func evalBenchGate(g *Gate, path string, gr *GateReport) {
	dump, err := bench.LoadDump(path)
	if err != nil {
		gr.Error = err.Error()
		return
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		matched := false
		for pi := range dump.Points {
			p := &dump.Points[pi]
			if c.Workload != "" && p.Workload != c.Workload {
				continue
			}
			if c.Algo != "" && p.Algo != c.Algo {
				continue
			}
			if c.Threads != 0 && p.Threads != c.Threads {
				continue
			}
			matched = true
			cr := CellReport{Cell: p.Workload, Algo: p.Algo, Threads: p.Threads}
			cr.Checks = benchChecks(c, p)
			cr.Pass = allPass(cr.Checks)
			gr.Cells = append(gr.Cells, cr)
		}
		if !matched {
			gr.Cells = append(gr.Cells, CellReport{
				Cell: selectorName(c), Algo: c.Algo, Threads: c.Threads,
				Checks: []Check{{
					Name: "present", Bound: 1,
					Detail: "no dump point matches this cell selector",
				}},
			})
		}
	}
}

func benchChecks(c *CellSpec, p *bench.JSONPoint) []Check {
	slo := &c.SLO
	var checks []Check
	if slo.MinOpsPerSec > 0 {
		checks = append(checks, Check{
			Name: "min_ops_per_sec", Value: p.OpsPerSec, Bound: slo.MinOpsPerSec,
			Pass: p.OpsPerSec >= slo.MinOpsPerSec,
		})
	}
	if slo.MaxP99Ms > 0 {
		ck := Check{Name: "max_p99_ms", Bound: slo.MaxP99Ms}
		if p99, ok := attemptP99Ms(p); ok {
			ck.Value = p99
			ck.Pass = p99 <= slo.MaxP99Ms
		} else {
			ck.Detail = "point has no obs snapshot (rerun with -obs)"
		}
		checks = append(checks, ck)
	}
	if slo.MaxAbortRate != nil {
		var rate float64
		if p.TM != nil {
			rate = p.TM.AbortRate
		}
		checks = append(checks, Check{
			Name: "max_abort_rate", Value: rate, Bound: *slo.MaxAbortRate,
			Pass: rate <= *slo.MaxAbortRate,
		})
	}
	if slo.MaxViolations != nil {
		ck := Check{Name: "max_violations", Bound: float64(*slo.MaxViolations)}
		switch {
		case p.Violations == nil:
			ck.Detail = "dump point has no violations field"
		case p.CheckError != "":
			ck.Value = float64(*p.Violations)
			ck.Detail = "invariant check failed: " + p.CheckError
		default:
			ck.Value = float64(*p.Violations)
			ck.Pass = *p.Violations <= *slo.MaxViolations
		}
		checks = append(checks, ck)
	}
	return checks
}

// attemptP99Ms extracts the whole-transaction p99 from the point's obs
// snapshot (the "attempt" phase spans one transaction attempt end to end).
func attemptP99Ms(p *bench.JSONPoint) (float64, bool) {
	if p.Obs == nil {
		return 0, false
	}
	for _, ph := range p.Obs.Phases {
		if ph.Phase == "attempt" {
			return float64(ph.P99NS) / 1e6, true
		}
	}
	return 0, false
}

func evalServeGate(g *Gate, path string, gr *GateReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		gr.Error = err.Error()
		return
	}
	dump, err := bench.ParseServeDump(data)
	if err != nil {
		gr.Error = err.Error()
		return
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		if c.Algo != "" && c.Algo != dump.Algo {
			gr.Cells = append(gr.Cells, CellReport{
				Cell: selectorName(c), Algo: c.Algo,
				Checks: []Check{{
					Name: "present", Bound: 1,
					Detail: fmt.Sprintf("server runs algo %q", dump.Algo),
				}},
			})
			continue
		}
		matched := false
		for ei := range dump.Endpoints {
			ep := &dump.Endpoints[ei]
			if c.Workload != "" && ep.Endpoint != c.Workload {
				continue
			}
			matched = true
			cr := CellReport{Cell: ep.Endpoint, Algo: dump.Algo}
			slo := &c.SLO
			if slo.MinOpsPerSec > 0 {
				rate := float64(ep.Requests) / dump.UptimeSec
				cr.Checks = append(cr.Checks, Check{
					Name: "min_ops_per_sec", Value: rate, Bound: slo.MinOpsPerSec,
					Pass: rate >= slo.MinOpsPerSec,
				})
			}
			if slo.MaxP99Ms > 0 {
				p99 := float64(ep.Latency.P99NS) / 1e6
				cr.Checks = append(cr.Checks, Check{
					Name: "max_p99_ms", Value: p99, Bound: slo.MaxP99Ms,
					Pass: p99 <= slo.MaxP99Ms,
				})
			}
			if slo.MaxAbortRate != nil {
				cr.Checks = append(cr.Checks, Check{
					Name: "max_abort_rate", Value: dump.TM.AbortRate, Bound: *slo.MaxAbortRate,
					Pass: dump.TM.AbortRate <= *slo.MaxAbortRate,
				})
			}
			cr.Pass = allPass(cr.Checks)
			gr.Cells = append(gr.Cells, cr)
		}
		if !matched {
			gr.Cells = append(gr.Cells, CellReport{
				Cell: selectorName(c), Algo: dump.Algo,
				Checks: []Check{{
					Name: "present", Bound: 1,
					Detail: "no endpoint row matches this cell selector",
				}},
			})
		}
	}
}

func selectorName(c *CellSpec) string {
	if c.Workload != "" {
		return c.Workload
	}
	return "(any)"
}

func allPass(checks []Check) bool {
	for _, ck := range checks {
		if !ck.Pass {
			return false
		}
	}
	return len(checks) > 0
}
