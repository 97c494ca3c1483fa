package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rhnorec/internal/bench"
	"rhnorec/internal/serve"
)

// TestDrivesAServerAndRejectsCompare pins rhload's surface against a live
// server: a short binary-protocol cell with -fail-on-errors exits 0 and its
// -json file is a valid rhbench.v2 dump; the deleted -compare and
// -scenario flags, a request mix that sums above 1 or holds a fraction
// outside [0, 1], fewer than one connection and a zero duration are usage
// errors.
func TestDrivesAServerAndRejectsCompare(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	s, err := serve.New(serve.Config{Keys: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cells := filepath.Join(dir, "cells.json")
	base := []string{"-addr", addr.String(), "-keys", "64", "-proto", "binary", "-conns", "1", "-duration", "50ms"}

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // on stdout when exit is 0, on stderr otherwise
	}{
		{"binary cell", []string{"-fail-on-errors", "-json", cells}, 0, "serve/binary/z0.99/r0.90/q0"},
		{"compare flag is gone", []string{"-compare", "x"}, 2, "flag provided but not defined"},
		{"scenario flag is gone", []string{"-scenario", "bank"}, 2, "flag provided but not defined"},
		{"mix over 1", []string{"-readmix", "0.95"}, 2, "get 0.95 + cas 0.02 + scan 0.02 + txn 0.05 = 1.04 > 1"},
		{"fraction over 1", []string{"-readmix", "1.5", "-casfrac", "0", "-scanfrac", "0", "-txnfrac", "0"}, 2, "fraction 1.5 outside [0, 1]"},
		{"negative fraction", []string{"-txnfrac", "-0.1"}, 2, "fraction -0.1 outside [0, 1]"},
		{"no connections", []string{"-conns", "0"}, 2, "-conns 0: want at least 1"},
		{"negative connections", []string{"-conns", "-1"}, 2, "-conns -1: want at least 1"},
		{"zero duration", []string{"-duration", "0s"}, 2, "-duration 0s: want > 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append(append([]string{}, base...), tc.args...)...)
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
				t.Fatalf("rhload %v: exit %d, want %d\n%s%s", tc.args, code, tc.exit, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if tc.exit != 0 {
				got = stderr.String()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("rhload %v printed %q, want it to contain %q", tc.args, got, tc.want)
			}
		})
	}

	data, err := os.ReadFile(cells)
	if err != nil {
		t.Fatalf("the clean run wrote no -json file: %v", err)
	}
	if err := bench.ValidateDump(data); err != nil {
		t.Errorf("the -json file fails the rhbench.v2 schema: %v", err)
	}
}
