package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplaysSweepsOrRejects pins rhexplore's surface: a checked-in fixture
// replays certified, -list names the scenario the CI read-segment sweep
// runs and a short sweep of it is clean, and a scenario name the registry
// does not know exits 2 before anything is explored or the -record file is
// created.
func TestReplaysSweepsOrRejects(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhexplore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	record := filepath.Join(dir, "trace.json")
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stdout when exit is 0, on stderr otherwise
	}{
		{"replay", []string{"-replay", "../../internal/explore/testdata/bank-rh-norec-seed7.json"}, 0, "certified: outcome ok reproduced"},
		{"list", []string{"-list"}, 0, "segments"},
		{"sweep", []string{"-scenario", "segments", "-algo", "rh-norec", "-seeds", "5", "-pct-horizon", "1024"}, 0, "no violation in 5 run(s): 5 reached their oracle, 0 diverged, 0 stuck"},
		{"unknown scenario", []string{"-scenario", "typo", "-record", record}, 2, `unknown scenario "typo"`},
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
				t.Fatalf("rhexplore %v: exit %d, want %d\n%s%s", tc.args, code, tc.exit, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if tc.exit != 0 {
				got = stderr.String()
				if stdout.Len() != 0 {
					t.Errorf("rhexplore %v explored something before rejecting its arguments:\n%s", tc.args, stdout.String())
				}
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("rhexplore %v printed %q, want it to contain %q", tc.args, got, tc.want)
			}
		})
	}
	if _, err := os.Stat(record); !os.IsNotExist(err) {
		t.Errorf("the rejected run left its -record file behind (stat: %v)", err)
	}
}
