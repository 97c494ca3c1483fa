package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rhnorec/internal/obs"
)

// TestReportsOrRejects pins rhtrace's surface: a trace file renders one
// abort table per point, -point narrows the report to the points it names,
// and a run that has nothing to report — no file, a file that is not a
// trace, a filter no point matches — says so on stderr with a non-zero exit
// and prints no report.
func TestReportsOrRejects(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhtrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	traces := []obs.Trace{
		{Workload: "rbtree-10k-90/5/5", Algo: "rh-norec", Threads: 2, Rings: []obs.ThreadRing{
			{Thread: 0, Dropped: 3, Events: []obs.EventJSON{
				{T: 10, Kind: "begin"},
				{T: 12, Kind: "abort", Cause: "htm-conflict", Retry: 1},
				{T: 14, Kind: "abort", Cause: "htm-conflict", Retry: 3},
				{T: 16, Kind: "commit", Path: "fast"},
			}},
			{Thread: 1, Events: []obs.EventJSON{
				{T: 11, Kind: "abort", Cause: "htm-capacity", Retry: 1},
				{T: 15, Kind: "commit", Path: "slow"},
			}},
		}},
		{Workload: "hashmap", Algo: "tl2", Threads: 1, Rings: []obs.ThreadRing{
			{Thread: 0, Events: []obs.EventJSON{{T: 1, Kind: "commit", Path: "slow"}}},
		}},
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.json")
	notTrace := filepath.Join(dir, "not-a-trace.json")
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(notTrace, []byte(`{"schema_version":"rhbench.v2"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want []string // on stdout for exit 0, on stderr otherwise
	}{
		{"no -in", nil, 2, []string{"-in FILE is required"}},
		{"not a trace", []string{"-in", notTrace}, 1, []string{notTrace + " is not a trace file"}},
		{"both points", []string{"-in", trace}, 0, []string{
			"==== rbtree-10k-90/5/5 / rh-norec / 2 threads ====",
			"rings: 2  events held: 6  overwritten: 3",
			"top abort causes (of 3 held abort events):",
			"  htm-conflict              2   66.7%       2.00",
			"  htm-capacity              1   33.3%       1.00",
			"thread 1 timeline (last 2 of 2 held, 0 overwritten):",
			"path=fast",
			"==== hashmap / tl2 / 1 threads ====",
			"no abort events in the held window",
		}},
		{"tables only, one cause", []string{"-in", trace, "-point", "rbtree", "-top", "1", "-limit", "0"}, 0, []string{
			"  htm-conflict              2   66.7%       2.00",
		}},
		{"no point matches", []string{"-in", trace, "-point", "nomatch"}, 1, []string{"no points matched"}},
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
				t.Fatalf("rhtrace %v: exit %d, want %d\n%s%s", tc.args, code, tc.exit, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if tc.exit != 0 {
				if stdout.Len() != 0 {
					t.Fatalf("rhtrace %v reported something before failing:\n%s", tc.args, stdout.String())
				}
				got = stderr.String()
			}
			for _, want := range tc.want {
				if !strings.Contains(got, want) {
					t.Fatalf("rhtrace %v printed %q, want it to contain %q", tc.args, got, want)
				}
			}
			if tc.name == "tables only, one cause" {
				for _, hidden := range []string{"htm-capacity", "timeline", "hashmap"} {
					if strings.Contains(got, hidden) {
						t.Fatalf("rhtrace %v printed %q, which -point/-top/-limit should have hidden:\n%s", tc.args, hidden, got)
					}
				}
			}
		})
	}
}
