package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rhnorec/internal/bench"
)

// TestFailsBeforeItRunsOrTruncates pins rhbench's up-front validation: a
// bad experiment name or flag is rejected before the first point runs
// (nothing on stdout) and before -json is created, so an existing dump
// survives the typo.
func TestFailsBeforeItRunsOrTruncates(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rhbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const kept = `{"kept":"from an earlier run"}`
	dump := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(dump, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stderr
	}{
		{"list", []string{"-experiment", "list"}, 0, ""},
		{"unknown experiment after a known one", []string{"-experiment", "fig4,typo", "-json", dump}, 2, `unknown experiment "typo"`},
		{"combine experiment is gone", []string{"-experiment", "combine", "-json", dump}, 2, `unknown experiment "combine"`},
		{"combine flag is gone", []string{"-experiment", "fig4", "-combine", "-json", dump}, 2, "flag provided but not defined"},
		{"compare flag is gone", []string{"-experiment", "fig4", "-compare", "/nonexistent", "-json", dump}, 2, "flag provided but not defined"},
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
				t.Fatalf("rhbench %v: exit %d, want %d\n%s", tc.args, code, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("rhbench %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
			}
			if tc.exit == 0 {
				if strings.Contains(stdout.String(), "combine") {
					t.Fatalf("rhbench %v still lists combine:\n%s", tc.args, stdout.String())
				}
				return
			}
			if stdout.Len() != 0 {
				t.Fatalf("rhbench %v ran a sweep before rejecting its arguments:\n%s", tc.args, stdout.String())
			}
			if got, err := os.ReadFile(dump); err != nil || string(got) != kept {
				t.Fatalf("rhbench %v: -json file is now %q (err %v), want it untouched", tc.args, got, err)
			}
		})
	}
}

// TestViolationNamesThePoint: a point with in-flight violations or a failed
// check is what makes rhbench exit 1, and its message names the workload,
// algorithm, thread count and the check's failure.
func TestViolationNamesThePoint(t *testing.T) {
	if msg := violation(bench.Result{Workload: "bank", Algo: "rh-norec", Threads: 4}); msg != "" {
		t.Errorf("clean point: %q, want none", msg)
	}
	for _, tc := range []struct {
		r    bench.Result
		want []string
	}{
		{bench.Result{Workload: "bank", Algo: "rh-norec", Threads: 4, Violations: 2},
			[]string{"bank", "rh-norec", "4 threads", "2 violation(s)", "in flight"}},
		{bench.Result{Workload: "ssca2", Algo: "tl2", Threads: 2, Violations: 1, CheckError: "degree 9 > cap"},
			[]string{"ssca2", "tl2", "2 threads", "1 violation(s)", "degree 9 > cap"}},
	} {
		msg := violation(tc.r)
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("violation(%+v) = %q, want it to contain %q", tc.r, msg, w)
			}
		}
	}
}
