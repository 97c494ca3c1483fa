package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rhnorec/internal/serve"
)

// fnv64 is FNV-1a over 64-bit words.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) add(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv64(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

// streamHash hashes the first n operations each client of a workload
// generates for (seed, trial 0, block 1).
func streamHash(w *workload, seed uint64, n int) uint64 {
	h := newFNV()
	for client := 0; client < clients; client++ {
		s := streamSeed(seed, 0, 1, client)
		if w.tm != nil {
			g := tmGen{r: rng{s: s}, thread: uint64(client), threads: uint64(clients), auditPct: w.tm.auditPct}
			for i := 0; i < n; i++ {
				op := g.next()
				h.add(uint64(op.kind))
				h.add(op.key)
				h.add(op.val)
			}
			continue
		}
		mix := kvDurableMix
		if w.kv != nil {
			mix = w.kv.mix
		}
		var z *zipf
		if mix.zipfTheta > 0 {
			z = sharedZipf(mix.zipfTheta)
		}
		g := newKVGen(mix, z, client, clients)
		g.r = rng{s: s}
		var req serve.ProtoRequest
		var exp kvExpect
		for i := 0; i < n; i++ {
			g.next(&req, &exp)
			h.add(uint64(req.Opcode))
			for _, op := range req.Ops {
				h.add(uint64(op.Kind))
				h.add(op.Key)
				h.add(op.Val)
				h.add(op.Old)
			}
		}
	}
	return uint64(h)
}

// The benchmark's inputs must not move: the same seed gives the same
// operation stream, today and after any refactor of the repository's own
// harness packages. The golden values pin the generators themselves.
func TestOperationStreamsRepeat(t *testing.T) {
	golden := map[string]uint64{
		"tm-rbtree-read":     0x0b595b24e2dd4fc2,
		"tm-capacity-mix":    0xf893d423f3367c28,
		"kv-pipelined-mixed": 0x2bc6772b99fcc4cd,
		"tm-durable-put":     0xd8406035e3241004,
	}
	for _, w := range workloads {
		a, b := streamHash(w, 42, 5000), streamHash(w, 42, 5000)
		if a != b {
			t.Errorf("%s: same seed, different streams: %#x vs %#x", w.name, a, b)
		}
		if c := streamHash(w, 43, 5000); c == a {
			t.Errorf("%s: seeds 42 and 43 give the same stream", w.name)
		}
		if a != golden[w.name] {
			t.Errorf("%s: stream hash %#x, golden %#x: the generator changed, so every earlier result is on other inputs", w.name, a, golden[w.name])
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, ok := percentile(v, 50, 10); p != 500 || !ok {
		t.Errorf("p50 = %v %v, want 500 true", p, ok)
	}
	if p, ok := percentile(v, 99, 10); p != 990 || !ok {
		t.Errorf("p99 = %v %v, want 990 true (10 samples beyond it)", p, ok)
	}
	if _, ok := percentile(v[:999], 99, 10); ok {
		t.Errorf("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if p, _ := percentile([]float64{7}, 99, 0); p != 7 {
		t.Errorf("p99 of one sample = %v", p)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := v[:10]
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 || median(ten) != 5.5 {
		t.Errorf("quartiles of 1..10 = %v %v median %v", q1, q3, median(ten))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %v %v", q1, q3)
	}
	if s := spread(ten); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{110, 120}, {150, 170}}, 70},
		{[]interval{{110, 150}, {140, 160}}, 50}, // overlapping children count once
		{[]interval{{90, 110}, {190, 250}}, 80},  // parts outside the parent do not count
		{[]interval{{100, 200}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
	tr := newTracer()
	op, body := tr.nameID("op"), tr.nameID("body")
	tr.spans = []span{
		{parent: -1, name: op, start: 0, end: 100},
		{parent: 0, name: body, start: 10, end: 40},
		{parent: 0, name: body, start: 50, end: 90},
		{parent: -1, name: op, start: 100, end: 130},
	}
	if self, total := tr.selfNS("op"); self != 60 || total != 130 {
		t.Errorf("selfNS = %d of %d, want 60 of 130", self, total)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is generated from spec.go; this keeps the checked-in file
// and the program from drifting, and holds the spec to the contract's
// limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from `sh benchmark/run.sh --print-spec`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s")
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
		if m.moves == "" {
			t.Errorf("%s: no statement of what it should move", m.name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("spec outside the contract's counts")
	}
}

// The smoke size runs every workload end to end, with its correctness
// checks, through every role a run uses; and every metric a role emits is a
// declared one, emitted by one role only.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	everEmitted := map[string]bool{}
	for _, w := range workloads {
		emittedBy := map[string]string{}
		for _, role := range []string{"trial", "traced", "probes"} {
			var res *trialResult
			var err error
			switch role {
			case "trial":
				res, err = runTrial(w, 5, 0, 0, true)
			case "traced":
				res, err = runTraced(w, 5, true)
			case "probes":
				if w.name == onRead || w.name == onPipe {
					continue // the probes are the same on every workload, but for the log shape of the durable one
				}
				res, err = runProbes(w, 5, true)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, role, err)
			}
			if res.Failed != 0 || res.CheckErr != "" || res.Attempted == 0 {
				t.Errorf("%s %s: attempted %d failed %d check %q", w.name, role, res.Attempted, res.Failed, res.CheckErr)
			}
			if role == "trial" {
				if len(res.E2E) != len(endToEnd) {
					t.Errorf("%s: end-to-end metrics %v", w.name, res.E2E)
				}
				for _, m := range endToEnd {
					if v, ok := res.E2E[m.name]; !ok || v <= 0 {
						t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
					}
				}
			}
			for k := range res.Layer {
				if !declared[k] {
					t.Errorf("%s %s emits undeclared metric %s", w.name, role, k)
				}
				if by, dup := emittedBy[k]; dup && k != "host.calib_ns" {
					t.Errorf("%s: %s emitted by both %s and %s", w.name, k, by, role)
				}
				emittedBy[k] = role
				everEmitted[k] = true
			}
		}
		if _, err := os.Stat(traceFile(w.name, "")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	for _, m := range perLayer {
		if !everEmitted[m.name] {
			t.Errorf("declared metric %s is never emitted", m.name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, scale float64, jitter float64) string {
		var f resultFile
		for i := 0; i < 10; i++ {
			rec := runRecord{Workload: onRead, Seed: uint64(i)}
			rec.Metrics = map[string]value{}
			for _, m := range endToEnd {
				v := 100 * (1 + jitter*float64(i-5)/5)
				if m.better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				rec.Metrics[m.name] = value{v, m.unit}
			}
			f.Runs = append(f.Runs, rec)
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("base.json", 1, 0.01)
	same := set("same.json", 1.02, 0.01)
	worse := set("worse.json", 1.5, 0.01)
	noisy := set("noisy.json", 1, 0.5)
	if code := compareFiles(base, same); code != 0 {
		t.Errorf("2 %% apart: exit %d, want 0", code)
	}
	if code := compareFiles(base, worse); code == 0 {
		t.Errorf("50 %% worse: exit 0")
	}
	if code := compareFiles(worse, base); code != 0 {
		t.Errorf("50 %% better: exit %d, want 0", code)
	}
	if code := compareFiles(base, noisy); code == 0 {
		t.Errorf("spread wider than the bound: exit 0, want unresolved")
	}
}
