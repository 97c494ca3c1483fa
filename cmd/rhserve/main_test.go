package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFlagRejections pins the flag sets rhserve refuses: the removed
// -persist and -ringsize flags, -durable without the -data log it waits on
// (a server that acks nothing durably), and an unknown -algo. Each must
// exit 2 with a message naming the flag, before any listener or log
// directory exists.
func TestFlagRejections(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rhserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	data := filepath.Join(t.TempDir(), "log")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"persist flag is gone", []string{"-addr", "127.0.0.1:0", "-data", data, "-persist", "sync"}, "flag provided but not defined"},
		{"ringsize flag is gone", []string{"-addr", "127.0.0.1:0", "-ringsize", "64"}, "flag provided but not defined"},
		{"durable without data", []string{"-addr", "127.0.0.1:0", "-durable"}, "-durable needs -data"},
		{"unknown algo", []string{"-addr", "127.0.0.1:0", "-data", data, "-algo", "hybrid-norec"}, `unknown -algo "hybrid-norec"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A flag set rhserve accepts boots a server that never exits.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("rhserve %v: err %v, want exit status 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("rhserve %v: stderr %q, want it to contain %q", tc.args, out, tc.want)
			}
			if matches, _ := filepath.Glob(filepath.Join(data, "*")); len(matches) != 0 {
				t.Fatalf("rhserve %v created %v before rejecting its flags", tc.args, matches)
			}
		})
	}
}
