package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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
	bin := buildRhload(t)
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

// buildRhload builds the command into a test temp dir and returns its path.
func buildRhload(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rhload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDumpRejectsErrorStatus: a -dump whose /metrics answers 404 exits 1
// and names the status, rather than calling the error page a dump that
// does not parse.
func TestDumpRejectsErrorStatus(t *testing.T) {
	bin := buildRhload(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such page", http.StatusNotFound)
	}))
	defer ts.Close()
	dump := filepath.Join(t.TempDir(), "dump.json")
	cmd := exec.Command(bin, "-addr", strings.TrimPrefix(ts.URL, "http://"), "-conns", "1",
		"-duration", "20ms", "-dump", dump)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("rhload -dump against a 404: err %v, want exit status 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "dump fetch") || !strings.Contains(stderr.String(), "404") {
		t.Fatalf("stderr %q, want a dump fetch error naming the 404", stderr.String())
	}
	if _, err := os.Stat(dump); err == nil {
		t.Fatal("rhload wrote a dump from a 404 reply")
	}
}

// cutter forwards TCP connections to a server until cut, which closes its
// listener and every forwarded connection at once: what a client sees of a
// server process killed mid-cell. (Server.Close would first answer the
// requests in flight ErrClosed, which are server-answered errors.)
type cutter struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

func newCutter(t *testing.T, target string) *cutter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &cutter{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			if !c.track(in, out) {
				return
			}
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return c
}

// track registers a forwarded pair; after cut it closes them instead.
func (c *cutter) track(pair ...net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		for _, x := range pair {
			x.Close()
		}
		return false
	}
	c.conns = append(c.conns, pair...)
	return true
}

func (c *cutter) cut() {
	c.ln.Close()
	c.mu.Lock()
	c.done = true
	conns := c.conns
	c.mu.Unlock()
	for _, x := range conns {
		x.Close()
	}
}

// TestDeadServerEndsItsConnections: a server that dies mid-cell costs each
// connection at most one error. A transport failure ends its connection and
// records no latency, so the cell reports at most conns errors and a p50 of
// real replies, on both transports and at any pipeline depth.
func TestDeadServerEndsItsConnections(t *testing.T) {
	const conns = 2
	for _, tc := range []struct {
		proto string
		depth int
	}{{"http", 1}, {"binary", 1}, {"binary", 8}} {
		t.Run(fmt.Sprintf("%s/p%d", tc.proto, tc.depth), func(t *testing.T) {
			s, err := serve.New(serve.Config{Keys: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c := newCutter(t, addr.String())
			defer c.cut()
			kill := time.AfterFunc(200*time.Millisecond, c.cut)
			defer kill.Stop()
			start := time.Now()
			res := runCell(cellConfig{
				addr: c.ln.Addr().String(), proto: tc.proto, conns: conns, duration: 600 * time.Millisecond,
				zipf: NewZipfKeys(64, 0.99), mix: RequestMix{GetFrac: 0.9}.WithDefaults(), seed: 1, pipeline: tc.depth,
			})
			if res.ops == 0 {
				t.Fatal("no request was served before the server died")
			}
			if res.errors < 1 || res.errors > conns {
				t.Fatalf("%d errors after the server died, want 1..%d (one per connection at most)", res.errors, conns)
			}
			if p50 := res.lat.Quantile(0.50); p50 == 0 {
				t.Fatalf("p50 0 over %d recorded latencies: failed round trips were recorded", res.lat.Count())
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Fatalf("the cell ran %v: its connections outlived the server", took)
			}
		})
	}
}
