package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/conformance"
	"rhnorec/internal/obs"
)

// attemptObs is a valid obs snapshot whose one sample puts the attempt
// phase's p99 at p99NS.
func attemptObs(p99NS uint64) *obs.Snapshot {
	return &obs.Snapshot{
		Phases: []obs.PhaseSnapshot{{Phase: "attempt", Count: 1, SumNS: p99NS, MaxNS: p99NS,
			P50NS: p99NS, P90NS: p99NS, P99NS: p99NS, Buckets: []obs.Bucket{{LowNS: 1, Count: 1}}}},
		Aborts: []obs.AbortSnapshot{},
	}
}

// benchDump is an rhbench.v2 dump of one passing bank point, changed by edit.
func benchDump(edit func(p *bench.JSONPoint)) bench.JSONDump {
	zero := uint64(0)
	p := bench.JSONPoint{Workload: "bank", Algo: "rh-norec", Threads: 4, Ops: 50000,
		ElapsedSec: 1, OpsPerSec: 50000, Obs: attemptObs(2e6),
		TM:         &bench.JSONTM{Commits: 1000, HTMAborts: 100, AbortRate: 0.0909},
		Violations: &zero}
	if edit != nil {
		edit(&p)
	}
	return bench.JSONDump{SchemaVersion: bench.SchemaVersion, Points: []bench.JSONPoint{p}}
}

// serveDump is an rhserve.v1 dump with one passing get endpoint, changed
// by edit.
func serveDump(edit func(d *bench.ServeDump)) bench.ServeDump {
	d := bench.ServeDump{SchemaVersion: bench.ServeSchemaVersion, Algo: "rh-norec", Workers: 2, Keys: 64,
		UptimeSec: 2,
		Endpoints: []bench.ServeEndpoint{{Endpoint: "get", Requests: 1000,
			Latency: obs.LatencySummary{Count: 1000, SumNS: 2e9, MaxNS: 9e8, P50NS: 500, P90NS: 900,
				P99NS: 2e6, P999NS: 5e6}}},
		TM: bench.ServeTM{Commits: 1000, FastPathCommits: 1000, HTMAborts: 100, AbortRate: 0.0909}}
	if edit != nil {
		edit(&d)
	}
	return d
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// boundCase is one rhgate run: dump is written to dump.json and passed as
// the only argument; with no dump, args are passed as they are.
type boundCase struct {
	name string
	dump any
	args []string
	exit int
	want string // on stdout for exit 0 and 1, on stderr for exit 2
}

// runBoundCases runs each case through run and checks its exit status, that
// its output contains want, and that a failed run prints the red verdict.
func runBoundCases(t *testing.T, cases []boundCase) {
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.dump != nil {
				path := filepath.Join(dir, "dump.json")
				writeJSON(t, path, tc.dump)
				args = []string{path}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != tc.exit {
				t.Fatalf("rhgate %v: exit %d, want %d\n%s%s", args, code, tc.exit, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if tc.exit == 2 {
				got = stderr.String()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("rhgate %v printed\n%s\nwant it to contain %q", args, got, tc.want)
			}
			if tc.exit == 1 && !strings.Contains(got, "## rhgate: ❌ FAILED") {
				t.Errorf("a failed run printed no red verdict:\n%s", got)
			}
		})
	}
}

// TestBenchBounds gives every bound on an rhbench.v2 point a row that misses
// it by the smallest step the dump can express and checks that the failure
// names the point and the bound; a clean point passes, and a dump that is
// empty or not of a known schema fails.
func TestBenchBounds(t *testing.T) {
	one := uint64(1)
	runBoundCases(t, []boundCase{
		{"clean point", benchDump(nil), nil, 0, "| dump.json | bank/rh-norec/t=4 | 50000 | 2.000 | 0.091 | 0 | ✅ |"},
		{"ops floor", benchDump(func(p *bench.JSONPoint) { p.OpsPerSec = 999 }), nil, 1,
			"dump.json bank/rh-norec/t=4: ops/s 999 < 1000"},
		{"point p99", benchDump(func(p *bench.JSONPoint) { p.Obs = attemptObs(501e6) }), nil, 1,
			"dump.json bank/rh-norec/t=4: p99 501 ms > 500 ms"},
		{"point abort rate", benchDump(func(p *bench.JSONPoint) { p.TM.AbortRate = 0.96 }), nil, 1,
			"dump.json bank/rh-norec/t=4: abort rate 0.96 > 0.95"},
		{"violations", benchDump(func(p *bench.JSONPoint) { p.Violations = &one }), nil, 1,
			"dump.json bank/rh-norec/t=4: 1 invariant violations > 0"},
		{"check_error", benchDump(func(p *bench.JSONPoint) { p.CheckError = "bank: total 99, want 100" }), nil, 1,
			"dump.json bank/rh-norec/t=4: check_error: bank: total 99, want 100"},
		{"no obs", benchDump(func(p *bench.JSONPoint) { p.Obs = nil }), nil, 1,
			"dump.json bank/rh-norec/t=4: no obs attempt phase"},
		{"obs without attempt phase", benchDump(func(p *bench.JSONPoint) {
			p.Obs = &obs.Snapshot{Phases: []obs.PhaseSnapshot{}, Aborts: []obs.AbortSnapshot{}}
		}), nil, 1, "dump.json bank/rh-norec/t=4: no obs attempt phase"},
		{"no violations field", benchDump(func(p *bench.JSONPoint) { p.Violations = nil }), nil, 1,
			"dump.json (invalid dump): "},
		{"empty bench dump", bench.JSONDump{SchemaVersion: bench.SchemaVersion, Points: []bench.JSONPoint{}}, nil, 1,
			"dump.json (empty dump): no points or endpoints to check"},
		{"bad schema_version", bench.JSONDump{SchemaVersion: "rhbench.v1", Points: []bench.JSONPoint{}}, nil, 1,
			`schema_version = "rhbench.v1", want "rhbench.v2"`},
	})
}

// TestServeBounds does the same for the two bounds on an rhserve.v1
// endpoint: a clean endpoint passes, one over the p99 or abort-rate bound
// fails and is named, and a dump with no endpoints fails.
func TestServeBounds(t *testing.T) {
	runBoundCases(t, []boundCase{
		{"clean serve", serveDump(nil), nil, 0, "| dump.json | get/rh-norec | - | 2.000 | 0.091 | - | ✅ |"},
		{"serve p99", serveDump(func(d *bench.ServeDump) { d.Endpoints[0].Latency.P99NS, d.Endpoints[0].Latency.P999NS = 501e6, 6e8 }), nil, 1,
			"dump.json get/rh-norec: p99 501 ms > 500 ms"},
		{"serve abort rate", serveDump(func(d *bench.ServeDump) { d.TM.AbortRate = 0.96 }), nil, 1,
			"dump.json get/rh-norec: abort rate 0.96 > 0.95"},
		{"empty serve dump", serveDump(func(d *bench.ServeDump) { d.Endpoints = []bench.ServeEndpoint{} }), nil, 1,
			"dump.json (empty dump): no points or endpoints to check"},
	})
}

// TestUsage checks that a missing dump fails as a dump, and that no
// arguments, or any flag, is a usage error.
func TestUsage(t *testing.T) {
	runBoundCases(t, []boundCase{
		{"unreadable", nil, []string{filepath.Join(t.TempDir(), "missing.json")}, 1, "missing.json (invalid dump): "},
		{"no arguments", nil, []string{}, 2, "usage: rhgate DUMP..."},
		{"a flag", nil, []string{"-spec", "ci.json"}, 2, "rhgate takes no flags"},
		{"help", nil, []string{"-h"}, 2, "rhgate takes no flags"},
	})
}

// TestReportTable checks the whole report of one run over two dumps: the
// verdict heading, the bounds, one table row per point and endpoint in
// argument order, and the failure list. A clean run prints the green
// verdict and no failure list.
func TestReportTable(t *testing.T) {
	dir := t.TempDir()
	one := uint64(1)
	points := benchDump(nil)
	points.Points = append(points.Points, benchDump(func(p *bench.JSONPoint) { p.Threads, p.Violations = 8, &one }).Points[0])
	pointsPath, servePath := filepath.Join(dir, "points.json"), filepath.Join(dir, "serve.json")
	writeJSON(t, pointsPath, points)
	writeJSON(t, servePath, serveDump(nil))

	var stdout, stderr bytes.Buffer
	if code := run([]string{pointsPath, servePath}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	want := `## rhgate: ❌ FAILED

Every row: p99 ≤ 500 ms, abort rate ≤ 0.95. Every rhbench.v2 point also: ≥ 1000 ops/s, 0 invariant violations, no check_error.

| dump | row | ops/s | p99 (ms) | abort rate | violations | verdict |
|---|---|---|---|---|---|---|
| points.json | bank/rh-norec/t=4 | 50000 | 2.000 | 0.091 | 0 | ✅ |
| points.json | bank/rh-norec/t=8 | 50000 | 2.000 | 0.091 | 1 | ❌ |
| serve.json | get/rh-norec | - | 2.000 | 0.091 | - | ✅ |

**Failures:**
- points.json bank/rh-norec/t=8: 1 invariant violations > 0
`
	if got := stdout.String(); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}

	stdout.Reset()
	if code := run([]string{servePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean run: exit %d, want 0\n%s", code, stdout.String())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "## rhgate: ✅ pass\n") || strings.Contains(got, "Failures") {
		t.Fatalf("clean run printed\n%s", got)
	}
}

// scenariosDump runs one conformance scenario the way CI's scenarios sweep
// does (oracle-checked, with observability) and returns the rhbench.v2 dump.
func scenariosDump(t *testing.T) *bench.JSONDump {
	t.Helper()
	sc, ok := conformance.ByName("bank")
	if !ok {
		t.Fatal("no bank scenario in the registry")
	}
	algo, _ := bench.AlgoByName("rh-norec")
	var rec bench.JSONRecorder
	if _, err := bench.RunSweep(bench.ScenarioWorkload(sc, conformance.ScaleSoak), bench.FigureConfig{
		PointConfig: bench.PointConfig{Duration: 20 * time.Millisecond, MemWords: 1 << 18, Obs: true},
		Algos:       []bench.Algo{algo},
		Threads:     []int{1, 2},
		Progress:    rec.Record,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump bench.JSONDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	return &dump
}

// TestGatesDumpsAndRejectsOldSpecs runs the built binary the way CI does
// over a real scenarios dump: clean it exits 0, and one violation in one
// point turns it red and names that point. The spec file and its flags are
// gone: the old CI invocation, and a run with no dump bound, are usage
// errors.
func TestGatesDumpsAndRejectsOldSpecs(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dump := scenariosDump(t)
	clean := filepath.Join(dir, "clean.json")
	writeJSON(t, clean, dump)
	one := uint64(1)
	dump.Points[len(dump.Points)-1].Violations = &one
	violated := filepath.Join(dir, "violated.json")
	writeJSON(t, violated, dump)

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stdout for exit 0 and 1, on stderr for exit 2
	}{
		{"clean dump", []string{clean}, 0, "## rhgate: ✅ pass"},
		{"one violation", []string{violated}, 1, "violated.json bank/rh-norec/t=2: 1 invariant violations > 0"},
		{"removed spec field", []string{"-spec", "gates/ci.json", "-gates", "conformance", "-dump", "scenarios=" + clean}, 2, "rhgate takes no flags"},
		{"unbound dump", nil, 2, "usage: rhgate DUMP..."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			got := stdout.String()
			if tc.exit == 2 {
				got = stderr.String()
			}
			if code != tc.exit || !strings.Contains(got, tc.want) {
				t.Fatalf("rhgate %v: exit %d, want %d with %q\n%s%s", tc.args, code, tc.exit, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}
