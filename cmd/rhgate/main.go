// Command rhgate holds benchmark and service dumps to CI's four absolute
// bounds and prints one markdown pass/fail table, readable in a log and
// ready to append to a GitHub job summary. It compares nothing against a
// baseline; `sh benchmark/run.sh --compare` does that.
//
// Usage:
//
//	rhgate DUMP...
//
// Each DUMP is an rhbench.v2 file (rhbench -json) or an rhserve.v1 file
// (rhload -dump), loaded and schema-validated by internal/bench; its
// schema_version picks the bounds. Every row — a benchmark point, or one
// endpoint of a service dump — is held to a p99 of at most maxP99Ms (a
// point's obs "attempt" phase, so its dump must be made with -obs; an
// endpoint's service latency, queueing included) and an abort rate of at
// most maxAbortRate (the point's, or the server's merged TM counters).
// Every benchmark point is also held to minOpsPerSec, to maxViolations
// invariant violations and to an empty check_error. A dump with no rows
// fails. rhgate takes no flags.
//
// Exit status: 0 when every row passes, 1 on a failed row or an unreadable
// or invalid dump, 2 on a usage error.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"rhnorec/internal/bench"
)

// The bounds, loose enough for shared CI runners. The throughput and
// invariant floors apply to rhbench.v2 points only.
const (
	maxP99Ms      = 500
	maxAbortRate  = 0.95
	minOpsPerSec  = 1000
	maxViolations = 0
)

// row is one table line: the dump and the point or endpoint in it, the
// measured values ("-" where a bound does not apply) and one entry per
// bound it misses.
type row struct {
	dump, where, ops, p99, aborts, viol string
	fails                               []string
}

func (r *row) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// ceilings checks the two bounds every row carries.
func (r *row) ceilings(p99Ms, abortRate float64) {
	r.p99, r.aborts = fmt.Sprintf("%.3f", p99Ms), fmt.Sprintf("%.3f", abortRate)
	if p99Ms > maxP99Ms {
		r.fail("p99 %.4g ms > %d ms", p99Ms, maxP99Ms)
	}
	if abortRate > maxAbortRate {
		r.fail("abort rate %.4g > %g", abortRate, maxAbortRate)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run gates every dump named in args, writes the table to stdout and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || slices.ContainsFunc(args, func(a string) bool { return strings.HasPrefix(a, "-") }) {
		fmt.Fprintln(stderr, "usage: rhgate DUMP... (rhbench.v2 or rhserve.v1 files; rhgate takes no flags)")
		return 2
	}
	var rows []row
	var fails []string
	for _, path := range args {
		rs, err := load(path)
		switch {
		case err != nil:
			rs = []row{{where: "(invalid dump)"}}
			rs[0].fail("%v", err)
		case len(rs) == 0:
			rs = []row{{where: "(empty dump)"}}
			rs[0].fail("no points or endpoints to check")
		}
		for i := range rs {
			rs[i].dump = filepath.Base(path)
			for _, f := range rs[i].fails {
				fails = append(fails, rs[i].dump+" "+rs[i].where+": "+f)
			}
		}
		rows = append(rows, rs...)
	}

	verdict := "✅ pass"
	if len(fails) > 0 {
		verdict = "❌ FAILED"
	}
	fmt.Fprintf(stdout, "## rhgate: %s\n\nEvery row: p99 ≤ %d ms, abort rate ≤ %g. Every rhbench.v2 point also: "+
		"≥ %d ops/s, %d invariant violations, no check_error.\n\n"+
		"| dump | row | ops/s | p99 (ms) | abort rate | violations | verdict |\n|---|---|---|---|---|---|---|\n",
		verdict, maxP99Ms, maxAbortRate, minOpsPerSec, maxViolations)
	for _, r := range rows {
		mark := "✅"
		if len(r.fails) > 0 {
			mark = "❌"
		}
		fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s | %s | %s |\n", r.dump, r.where, r.ops, r.p99, r.aborts, r.viol, mark)
	}
	if len(fails) == 0 {
		return 0
	}
	fmt.Fprintln(stdout, "\n**Failures:**")
	for _, f := range fails {
		fmt.Fprintf(stdout, "- %s\n", f)
	}
	return 1
}

// load reads one dump and turns it into rows, one per benchmark point or
// service endpoint.
func load(path string) ([]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		SchemaVersion string `json:"schema_version"`
	}
	if json.Unmarshal(data, &probe) == nil && probe.SchemaVersion == bench.ServeSchemaVersion {
		d, err := bench.ParseServeDump(data)
		if err != nil {
			return nil, err
		}
		var rows []row
		for _, ep := range d.Endpoints {
			r := row{where: ep.Endpoint + "/" + d.Algo, ops: "-", viol: "-"}
			r.ceilings(float64(ep.Latency.P99NS)/1e6, d.TM.AbortRate)
			rows = append(rows, r)
		}
		return rows, nil
	}
	// Anything else loads as rhbench.v2, whose error names the format.
	d, err := bench.LoadDump(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	for i := range d.Points {
		rows = append(rows, pointRow(&d.Points[i]))
	}
	return rows, nil
}

// pointRow holds one benchmark point to all four bounds.
func pointRow(p *bench.JSONPoint) row {
	r := row{where: fmt.Sprintf("%s/%s/t=%d", p.Workload, p.Algo, p.Threads), ops: fmt.Sprintf("%.0f", p.OpsPerSec)}
	if p.OpsPerSec < minOpsPerSec {
		r.fail("ops/s %.4g < %d", p.OpsPerSec, minOpsPerSec)
	}
	var p99Ms float64
	attempt := false
	if p.Obs != nil {
		for _, ph := range p.Obs.Phases {
			if ph.Phase == "attempt" {
				p99Ms, attempt = float64(ph.P99NS)/1e6, true
			}
		}
	}
	var abortRate float64
	if p.TM != nil {
		abortRate = p.TM.AbortRate
	}
	r.ceilings(p99Ms, abortRate)
	if !attempt {
		r.p99 = "?"
		r.fail("no obs attempt phase (rerun rhbench with -obs)")
	}
	// ValidateDump requires the violations field on every point.
	r.viol = strconv.FormatUint(*p.Violations, 10)
	if *p.Violations > maxViolations {
		r.fail("%d invariant violations > %d", *p.Violations, maxViolations)
	}
	if p.CheckError != "" {
		r.fail("check_error: %s", p.CheckError)
	}
	return r
}
