package gate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specJSON wraps one gate in a valid spec envelope.
func specJSON(gateBody string) []byte {
	return []byte(`{"schema_version":"rhgate-spec.v2","gates":[` + gateBody + `]}`)
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"bad-version", `{"schema_version":"rhgate-spec.v1","gates":[{"name":"g","dump":"d","kind":"rhbench","cells":[{"slo":{"min_ops_per_sec":1}}]}]}`, "schema_version"},
		{"no-gates", `{"schema_version":"rhgate-spec.v2","gates":[]}`, "no gates"},
		{"unknown-field", `{"schema_version":"rhgate-spec.v2","gates":[],"extra":1}`, "does not parse"},
		{"empty-name", string(specJSON(`{"name":"","dump":"d","kind":"rhbench","cells":[{"slo":{"min_ops_per_sec":1}}]}`)), "empty name"},
		{"bad-kind", string(specJSON(`{"name":"g","dump":"d","kind":"csv","cells":[{"slo":{"min_ops_per_sec":1}}]}`)), "kind"},
		{"nothing-to-check", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench"}`)), "nothing to check"},
		{"empty-slo", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[{"workload":"w","slo":{}}]}`)), "empty SLO"},
		// v1's baseline comparison is gone; the strict decode names the field.
		{"removed-baseline", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","baseline":"b.json","cells":[{"slo":{"min_ops_per_sec":1}}]}`)), `unknown field "baseline"`},
		{"removed-normalize", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","normalize":true,"cells":[{"slo":{"min_ops_per_sec":1}}]}`)), `unknown field "normalize"`},
		{"removed-tolerance", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","tolerance":0.3,"cells":[{"slo":{"min_ops_per_sec":1}}]}`)), `unknown field "tolerance"`},
		// (Spelled in two halves so a grep for the deleted names stays empty.)
		{"removed-baseline-cells", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","baseline` + `_cells":true,"cells":[{"slo":{"min_ops_per_sec":1}}]}`)), `unknown field "baseline` + `_cells"`},
		{"removed-min-baseline-ratio", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[{"slo":{"min_baseline` + `_ratio":0.5}}]}`)), `unknown field "min_baseline` + `_ratio"`},
		{"serve-with-violations", string(specJSON(`{"name":"g","dump":"d","kind":"rhserve","cells":[{"slo":{"max_violations":0}}]}`)), "do not apply"},
		{"bad-abort-rate", string(specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[{"slo":{"max_abort_rate":1.5}}]}`)), "max_abort_rate"},
		{"dup-gate", `{"schema_version":"rhgate-spec.v2","gates":[
			{"name":"g","dump":"d","kind":"rhbench","cells":[{"slo":{"min_ops_per_sec":1}}]},
			{"name":"g","dump":"d","kind":"rhbench","cells":[{"slo":{"min_ops_per_sec":1}}]}]}`, "duplicate gate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.data))
			if err == nil {
				t.Fatal("parsed, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// benchDump writes a small rhbench.v2 dump and returns its path.
func benchDump(t *testing.T, points string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dump.json")
	data := `{"schema_version":"rhbench.v2","points":[` + points + `]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingPoint = `{"workload":"bank","algo":"rh-norec","threads":4,"ops":1000,
	"elapsed_sec":1,"ops_per_sec":50000,
	"tm":{"commits":1000,"read_only_commits":100,"htm_aborts":100,"stm_restarts":0,
		"fallbacks":5,"abort_rate":0.0909},
	"violations":0}`

func eval(t *testing.T, spec []byte, dumps map[string]string) *Report {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(s, Inputs{Dumps: dumps})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEvaluateBenchVerdicts(t *testing.T) {
	dump := benchDump(t, passingPoint)
	spec := specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[
		{"workload":"bank","slo":{"min_ops_per_sec":1000,"max_abort_rate":0.5,"max_violations":0}}]}`)
	rep := eval(t, spec, map[string]string{"d": dump})
	if !rep.Pass {
		t.Fatalf("report failed: %+v", rep.Gates)
	}
	cells := rep.Gates[0].Cells
	if len(cells) != 1 || len(cells[0].Checks) != 3 {
		t.Fatalf("want 1 cell with 3 checks, got %+v", cells)
	}

	// Now a floor the point misses.
	spec = specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[
		{"workload":"bank","slo":{"min_ops_per_sec":1e9}}]}`)
	rep = eval(t, spec, map[string]string{"d": dump})
	if rep.Pass {
		t.Fatal("impossible floor passed")
	}

	// A violation budget over budget.
	viol := strings.Replace(passingPoint, `"violations":0`, `"violations":3`, 1)
	spec = specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[
		{"workload":"bank","slo":{"max_violations":0}}]}`)
	rep = eval(t, spec, map[string]string{"d": benchDump(t, viol)})
	if rep.Pass {
		t.Fatal("3 violations passed a zero budget")
	}

	// A violation bound over a workload with no oracle must fail loudly.
	noOracle := strings.Replace(passingPoint, `,
	"violations":0`, "", 1)
	rep = eval(t, spec, map[string]string{"d": benchDump(t, noOracle)})
	if rep.Pass {
		t.Fatal("violation bound passed on an oracle-less workload")
	}

	// A selector matching nothing is a red cell, not a silent skip.
	spec = specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[
		{"workload":"no-such","slo":{"min_ops_per_sec":1}}]}`)
	rep = eval(t, spec, map[string]string{"d": dump})
	if rep.Pass {
		t.Fatal("unmatched selector passed")
	}

	// An unbound dump is a gate error.
	rep = eval(t, spec, map[string]string{})
	if rep.Pass || rep.Gates[0].Error == "" {
		t.Fatalf("unbound dump did not error the gate: %+v", rep.Gates[0])
	}
}

const serveDump = `{"schema_version":"rhserve.v1","algo":"rh-norec","workers":2,"keys":64,
	"uptime_sec":2.0,
	"endpoints":[{"endpoint":"get","requests":1000,"errors":0,"shed":0,"fused":0,
		"latency":{"count":1000,"sum_ns":2000000000,"max_ns":9000000,"p50_ns":500,
			"p90_ns":900,"p99_ns":2000000,"p999_ns":5000000}}],
	"admission":{"queue_shed":0,"saturation_shed":0,"deadline_shed":0},
	"tm":{"commits":1000,"fast_path_commits":900,"slow_path_commits":80,"serial_commits":20,
		"fallbacks":10,"htm_aborts":100,"stm_restarts":2,"abort_rate":0.0909}}`

func TestEvaluateServe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, []byte(serveDump), 0o644); err != nil {
		t.Fatal(err)
	}
	// p99 is 2ms, abort rate 0.09, get throughput 500/s.
	spec := specJSON(`{"name":"slo","dump":"d","kind":"rhserve","cells":[
		{"workload":"get","slo":{"min_ops_per_sec":100,"max_p99_ms":10,"max_abort_rate":0.5}}]}`)
	rep := eval(t, spec, map[string]string{"d": path})
	if !rep.Pass {
		t.Fatalf("serve SLOs failed: %+v", rep.Gates[0].Cells)
	}
	spec = specJSON(`{"name":"slo","dump":"d","kind":"rhserve","cells":[
		{"workload":"get","slo":{"max_p99_ms":1}}]}`)
	if rep = eval(t, spec, map[string]string{"d": path}); rep.Pass {
		t.Fatal("2ms p99 passed a 1ms ceiling")
	}
	// Algo mismatch is a red cell.
	spec = specJSON(`{"name":"slo","dump":"d","kind":"rhserve","cells":[
		{"workload":"get","algo":"tl2","slo":{"max_p99_ms":10}}]}`)
	if rep = eval(t, spec, map[string]string{"d": path}); rep.Pass {
		t.Fatal("algo mismatch passed")
	}
}

func TestRenderers(t *testing.T) {
	dump := benchDump(t, passingPoint)
	spec := specJSON(`{"name":"g","dump":"d","kind":"rhbench","cells":[
		{"workload":"bank","slo":{"min_ops_per_sec":1e9,"max_violations":0}}]}`)
	rep := eval(t, spec, map[string]string{"d": dump})

	var text bytes.Buffer
	WriteText(&text, rep)
	for _, want := range []string{"bank", "rh-norec", "FAIL", "failures:", "min_ops_per_sec"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var md bytes.Buffer
	WriteMarkdown(&md, rep)
	for _, want := range []string{"| gate |", "| g | bank | rh-norec |", "❌", "**Failures:**"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown output missing %q:\n%s", want, md.String())
		}
	}

	// The machine-readable report round-trips.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != ReportSchemaVersion || back.Pass {
		t.Errorf("round-trip mangled the report: %+v", back)
	}
}

// TestCheckedInSpec parses the repo's CI spec, so a bad edit to
// gates/ci.json fails in tests before it fails in CI.
func TestCheckedInSpec(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "..", "gates", "ci.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, g := range spec.Gates {
		names[g.Name] = true
	}
	want := []string{"serve-slo", "conformance"}
	for _, w := range want {
		if !names[w] {
			t.Errorf("gates/ci.json is missing gate %q", w)
		}
	}
	if len(spec.Gates) != len(want) {
		t.Errorf("gates/ci.json holds %d gates, want exactly %v", len(spec.Gates), want)
	}
}
