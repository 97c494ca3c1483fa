package explore

// The explorer sets process-global planted-bug flags, so no test here uses
// t.Parallel.

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// fiveTMs are the core algorithms every scenario oracle must hold for.
var fiveTMs = []string{"lock-elision", "norec", "tl2", "hy-norec", "rh-norec"}

func mustRun(t *testing.T, cfg Config, strat Strategy) RunResult {
	t.Helper()
	res, err := RunOnce(cfg, strat)
	if err != nil {
		t.Fatalf("RunOnce(%+v): %v", cfg, err)
	}
	return res
}

// TestSchedulerDeterminism is the foundation everything else rests on: the
// same strategy seed must reproduce the identical event sequence.
func TestSchedulerDeterminism(t *testing.T) {
	for _, cfg := range []Config{
		{Scenario: "htm-opacity", Ops: 2},
		{Scenario: "bank", Algo: "rh-norec"},
		{Scenario: "kv-linearize", Algo: "hy-norec"},
	} {
		for _, seed := range []uint64{1, 7, 99} {
			a := mustRun(t, cfg, NewPCT(seed, 4, 3, 128, 0.2))
			b := mustRun(t, cfg, NewPCT(seed, 4, 3, 128, 0.2))
			if !reflect.DeepEqual(a.Events, b.Events) {
				t.Fatalf("%s seed %d: event sequences differ across identical runs", cfg.Scenario, seed)
			}
			if !reflect.DeepEqual(a.Choices, b.Choices) {
				t.Fatalf("%s seed %d: choice sequences differ across identical runs", cfg.Scenario, seed)
			}
			if a.Outcome != b.Outcome || a.Violation != b.Violation {
				t.Fatalf("%s seed %d: outcome %v/%q vs %v/%q", cfg.Scenario, seed,
					a.Outcome, a.Violation, b.Outcome, b.Violation)
			}
		}
	}
}

// TestRecordReplayTwice records a run and replays the trace twice; both
// replays must certify against the recording and against each other.
func TestRecordReplayTwice(t *testing.T) {
	cfg := Config{Scenario: "bank", Algo: "rh-norec"}
	res := mustRun(t, cfg, NewPCT(42, 3, 3, 256, 0.1))
	tr := NewTrace(cfg, res)
	r1, err := tr.Replay()
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	r2, err := tr.Replay()
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatal("replayed event sequences differ between replays")
	}
	if !reflect.DeepEqual(res.Events, r1.Events) {
		t.Fatal("replayed event sequence differs from the recording")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	cfg := Config{Scenario: "htm-opacity"}
	res := mustRun(t, cfg, NewPCT(3, 2, 3, 64, 0))
	tr := NewTrace(cfg, res)
	path := t.TempDir() + "/trace.json"
	if err := tr.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\nsaved  %+v\nloaded %+v", tr, got)
	}
	if _, err := got.Replay(); err != nil {
		t.Fatalf("replay of loaded trace: %v", err)
	}
	// A tampered events digest must fail certification.
	got.EventsHash = "0000000000000000"
	if _, err := got.Replay(); err == nil {
		t.Fatal("replay certified a trace with a corrupted events hash")
	}
}

// TestFaultInjection checks the fault plane end to end: injected directives
// surface as device aborts (visible as abort events with the spurious /
// capacity cause), and the protocols absorb them without violations.
func TestFaultInjection(t *testing.T) {
	cfg := Config{Scenario: "htm-opacity", Ops: 2}
	injected, aborted := false, false
	for seed := uint64(1); seed <= 20; seed++ {
		res := mustRun(t, cfg, NewPCT(seed, 2, 3, 64, 0.5))
		if res.Outcome == OutcomeViolation {
			t.Fatalf("seed %d: faults alone must not break the real protocol: %s", seed, res.Violation)
		}
		for _, ev := range res.Events {
			if ev.Fault != FaultNone {
				injected = true
			}
			if ev.Point == PointHTMAbort {
				aborted = true
			}
		}
	}
	if !injected {
		t.Fatal("no fault was injected across 20 half-rate seeds")
	}
	if !aborted {
		t.Fatal("injected faults never surfaced as abort events")
	}
}

// TestFaultsOnlyAtInjectablePoints: the scheduler must downgrade fault
// directives attached to non-HTM yield points.
func TestFaultsOnlyAtInjectablePoints(t *testing.T) {
	cfg := Config{Scenario: "bank", Algo: "norec"} // pure software: nothing injectable while committed to STM paths
	for seed := uint64(1); seed <= 5; seed++ {
		res := mustRun(t, cfg, NewPCT(seed, 3, 3, 128, 0.9))
		for _, ev := range res.Events {
			if ev.Fault != FaultNone && !ev.Point.injectable() {
				t.Fatalf("seed %d: fault %v recorded at non-injectable point %v", seed, ev.Fault, ev.Point)
			}
		}
	}
}

// TestPlantedBugFoundAndShrunk is the acceptance gate of ISSUE 4: with value
// revalidation disabled, PCT must find the opacity violation and ddmin must
// shrink it to at most 12 scheduler steps, and the shrunk schedule must
// replay to the same violation.
func TestPlantedBugFoundAndShrunk(t *testing.T) {
	cfg := Config{Scenario: "htm-opacity", Bug: "skip-validation"}
	found, runs, err := ExplorePCT(cfg, 1, 300, 3, 64, 0)
	if err != nil {
		t.Fatalf("ExplorePCT: %v", err)
	}
	if found == nil {
		t.Fatalf("planted opacity bug not found in %d PCT seeds", runs.Runs())
	}
	t.Logf("found by seed %d after %d runs, %d steps", found.Seed, runs.Runs(), found.Result.Steps)
	sr, ok := Shrink(cfg, found.Result.Choices, 2000)
	if !ok {
		t.Fatal("shrink could not reproduce the found violation")
	}
	t.Logf("shrunk to %d steps in %d replays:\n%s", len(sr.Choices), sr.Runs, FormatTrace(sr.Result))
	if len(sr.Choices) > 12 {
		t.Fatalf("shrunk counterexample has %d steps, want <= 12", len(sr.Choices))
	}
	res := mustRun(t, cfg, newReplay(sr.Choices, false))
	if res.Outcome != OutcomeViolation {
		t.Fatalf("shrunk schedule replayed to %v, want violation", res.Outcome)
	}
}

// TestDFSFindsPlantedBug: the 12-step counterexample needs only one
// preemption, so preemption-bounded DFS must reach it too.
func TestDFSFindsPlantedBug(t *testing.T) {
	cfg := Config{Scenario: "htm-opacity", Bug: "skip-validation"}
	found, runs, _, err := ExploreDFS(cfg, 2, 4000)
	if err != nil {
		t.Fatalf("ExploreDFS: %v", err)
	}
	if found == nil {
		t.Fatalf("planted bug not found in %d DFS runs", runs.Runs())
	}
	t.Logf("DFS found it after %d runs, %d steps", runs.Runs(), found.Result.Steps)
}

// TestDFSCompletes: with the bug absent and one preemption allowed the
// bounded space of the tiny scenario is fully explorable, every run of it
// reaches its oracle, and none of it violates.
func TestDFSCompletes(t *testing.T) {
	cfg := Config{Scenario: "htm-opacity"}
	found, runs, complete, err := ExploreDFS(cfg, 1, 5000)
	if err != nil {
		t.Fatalf("ExploreDFS: %v", err)
	}
	if found != nil {
		t.Fatalf("correct protocol violated:\n%s", FormatTrace(found.Result))
	}
	if !complete {
		t.Fatalf("bound-1 space not exhausted in %d runs", runs.Runs())
	}
	if runs.OK != runs.Runs() {
		t.Fatalf("%d of %d runs diverged and %d got stuck before their oracle", runs.Diverged, runs.Runs(), runs.Stuck)
	}
	t.Logf("exhausted bound-1 space in %d runs", runs.Runs())
}

// TestScenarioOraclesAcrossTMs sweeps every TM scenario over all five core
// algorithms under a handful of adversarial seeds with faults enabled; the
// real protocols must never violate their oracles.
func TestScenarioOraclesAcrossTMs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, sc := range []string{"bank", "rbtree", "kv-linearize", "segments"} {
		for _, algo := range fiveTMs {
			cfg := Config{Scenario: sc, Algo: algo}
			found, _, err := ExplorePCT(cfg, 1, 5, 3, 256, 0.1)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc, algo, err)
			}
			if found != nil {
				t.Errorf("%s/%s violated (seed %d): %s\n%s", sc, algo,
					found.Seed, found.Result.Violation, FormatTrace(found.Result))
			}
		}
	}
}

// TestSegmentsScenarioChains: the segments scenario exists to put RH NOrec's
// read segments under explored schedules, so a run of it in which no auditor
// ever chained one would sweep nothing. On Hybrid NOrec — the same code with
// the prefix off — none may run.
func TestSegmentsScenarioChains(t *testing.T) {
	for _, tc := range []struct {
		algo         string
		wantSegments bool
	}{{"rh-norec", true}, {"hy-norec", false}} {
		var total tm.Stats
		sc := segmentsScenario(func(st *tm.Stats) { total.Add(st) })
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := RunScenario(sc, Config{Algo: tc.algo}, NewPCT(seed, 3, 3, 256, 0))
			if err != nil {
				t.Fatal(err)
			}
			// A strict-priority schedule may spin a waiter against a parked
			// lock holder until the step budget ends the run: not a verdict.
			if res.Outcome != OutcomeOK && res.Outcome != OutcomeDiverged {
				t.Fatalf("%s seed %d ended %v: %s\n%s", tc.algo, seed, res.Outcome, res.Violation, FormatTrace(res))
			}
		}
		t.Logf("%s: %d commits, %d prefix + %d segment + %d software reads, %d of %d segments committed", tc.algo,
			total.Commits, total.PrefixReads, total.SegmentReads, total.SoftwareReads, total.SegmentCommits, total.SegmentAttempts)
		if got := total.SegmentCommits > 0; got != tc.wantSegments {
			t.Errorf("%s committed %d read segments over 5 seeds, want any: %v", tc.algo, total.SegmentCommits, tc.wantSegments)
		}
	}
}

// TestDivergedOutcome: an absurdly small step budget reports divergence, not
// a hang, and teardown reclaims the workers (the -race runs would flag any
// unsynchronized stragglers).
func TestDivergedOutcome(t *testing.T) {
	cfg := Config{Scenario: "bank", Algo: "rh-norec", MaxSteps: 5}
	res := mustRun(t, cfg, NewPCT(1, 3, 3, 128, 0))
	if res.Outcome != OutcomeDiverged {
		t.Fatalf("outcome %v, want diverged", res.Outcome)
	}
	if res.Steps != 5 {
		t.Fatalf("recorded %d steps, want 5", res.Steps)
	}
}

// TestStuckWorkerIsJoined: a worker that spins outside every yield point, on
// something a parked worker holds, trips the watchdog — and must still be
// gone when RunScenario returns and unhooks the memory. Worker 0 takes a
// lock the explorer cannot see and parks; worker 1 spins on it. Teardown
// unwinds worker 0, whose deferred release frees worker 1, which then runs
// its hooked loads to the end. The plain `finished` flag and the memory's
// hook field are the witnesses: under -race an unjoined worker 1 is a data
// race on both.
func TestStuckWorkerIsJoined(t *testing.T) {
	var held atomic.Bool
	parked, finished := false, false
	sc := Scenario{
		Name:         "stuck-join",
		FixedWorkers: 2,
		DefaultOps:   1,
		Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
			a := env.M.NewThreadCache().Alloc(mem.LineWords)
			holder := func() {
				held.Store(true)
				defer held.Store(false)
				parked = true
				env.M.LoadPlain(a) // parks here for the rest of the run
			}
			spinner := func() {
				for held.Load() {
					runtime.Gosched()
				}
				for i := 0; i < 1000; i++ {
					env.M.LoadPlain(a)
					runtime.Gosched()
				}
				finished = true
			}
			return []func(){holder, spinner}, nil, nil
		},
	}
	strat := Steer(Leg{Worker: 0, Until: func() bool { return parked }}, Leg{Worker: 1})
	res, err := RunScenario(sc, Config{Timeout: 50 * time.Millisecond}, strat)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Outcome != OutcomeStuck {
		t.Fatalf("outcome %v, want stuck", res.Outcome)
	}
	if held.Load() {
		t.Fatal("worker 0 was not unwound: the lock is still held")
	}
	if !finished {
		t.Fatal("RunScenario returned with the stuck worker still running")
	}
}

// TestFixtureReplay certifies the checked-in traces against the current
// code: any change to the yield-point map or the protocols that alters a
// recorded interleaving shows up here as an events-hash mismatch. The
// hy-norec trace was recorded while Hybrid NOrec still had a slow path of its
// own (internal/hynorec), so it also certifies that core.NewHybridNOrec is
// step for step that algorithm.
func TestFixtureReplay(t *testing.T) {
	for _, algo := range []string{"rh-norec", "hy-norec"} {
		t.Run(algo, func(t *testing.T) {
			file := "testdata/bank-" + algo + "-seed7.json"
			tr, err := LoadTrace(file)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Replay(); err != nil {
				t.Fatalf("fixture no longer reproduces: %v\n(regenerate with: go run ./cmd/rhexplore -scenario bank -algo %s -seeds 1 -seed0 7 -fault-rate 0.1 -record internal/explore/%s)", err, algo, file)
			}
		})
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := (Config{Scenario: "no-such"}).Normalize(); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := (Config{Scenario: "bank"}).Normalize(); err == nil {
		t.Error("TM scenario accepted without an algorithm")
	}
	if _, err := (Config{Scenario: "htm-opacity", Bug: "no-such"}).Normalize(); err == nil {
		t.Error("unknown bug accepted")
	}
	cfg, err := (Config{Scenario: "htm-opacity", Workers: 9}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 {
		t.Errorf("fixed-worker scenario normalized to %d workers, want 2", cfg.Workers)
	}
}
