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
)

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
	if _, err := bench.RunSweep(bench.SweepConfig{
		Workload: bench.ScenarioWorkload(sc, conformance.ScaleSoak),
		Algos:    []bench.Algo{algo},
		Threads:  []int{1, 2},
		Duration: 20 * time.Millisecond,
		MemWords: 1 << 18,
		Obs:      true,
		Progress: rec.Record,
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

// TestGatesDumpsAndRejectsOldSpecs pins rhgate's surface over the checked-in
// spec: the conformance gate passes a clean scenarios dump and goes red —
// with its -md/-json reports still written — on one violation in one point,
// an unbound dump is a red gate, and a spec that still carries a field of
// the deleted baseline comparison is a usage error naming the field.
func TestGatesDumpsAndRejectsOldSpecs(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const spec = "../../gates/ci.json"

	dump := scenariosDump(t)
	clean := filepath.Join(dir, "clean.json")
	writeJSON(t, clean, dump)
	one := uint64(1)
	dump.Points[len(dump.Points)-1].Violations = &one
	violated := filepath.Join(dir, "violated.json")
	writeJSON(t, violated, dump)

	oldSpec := filepath.Join(dir, "old-spec.json")
	if err := os.WriteFile(oldSpec, []byte(`{"schema_version":"rhgate-spec.v2","gates":[
		{"name":"conformance","dump":"scenarios","kind":"rhbench","baseline":"base.json",
		 "cells":[{"slo":{"max_violations":0}}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	md, report := filepath.Join(dir, "gate.md"), filepath.Join(dir, "rhgate.json")

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stdout for exit 0 and 1, on stderr for exit 2
	}{
		{"clean dump", []string{"-spec", spec, "-gates", "conformance", "-dump", "scenarios=" + clean}, 0, "rhgate: all gates pass"},
		{"one violation", []string{"-spec", spec, "-gates", "conformance", "-dump", "scenarios=" + violated, "-md", md, "-json", report}, 1, "max_violations: 1 > bound 0"},
		{"unbound dump", []string{"-spec", spec, "-gates", "conformance"}, 1, `dump "scenarios" not bound`},
		{"removed spec field", []string{"-spec", oldSpec, "-dump", "scenarios=" + clean}, 2, `unknown field "baseline"`},
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
			if code != tc.exit {
				t.Fatalf("rhgate %v: exit %d, want %d\n%s%s", tc.args, code, tc.exit, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if tc.exit == 2 {
				got = stderr.String()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("rhgate %v printed %q, want it to contain %q", tc.args, got, tc.want)
			}
		})
	}

	if data, err := os.ReadFile(md); err != nil || !strings.Contains(string(data), "❌") {
		t.Errorf("the red run's -md report: %q (err %v), want a failed table", data, err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("the red run wrote no -json report: %v", err)
	}
	var rep struct {
		SchemaVersion string `json:"schema_version"`
		Pass          bool   `json:"pass"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || rep.SchemaVersion != "rhgate.v1" || rep.Pass {
		t.Errorf("the red run's -json report: %+v (err %v), want a failed rhgate.v1 report", rep, err)
	}
}
