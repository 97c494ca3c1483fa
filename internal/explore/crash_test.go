package explore

// Tests of the explored crash plane: the bank-crash scenario sweeps crash
// plans ("crash@N") across PCT seeds, so torn redo-log images from many
// schedule × crash-point combinations all recover to a consistent cut.

import (
	"fmt"
	"reflect"
	"testing"

	"rhnorec/internal/persist"
)

// crashAlgos are the eight registered drivers; the crash plane must hold on
// every one of them.
var crashAlgos = []string{
	"rh-norec", "hy-norec", "norec", "tl2", "lock-elision", "rh-tl2", "phased-tm", "serial",
}

// TestBankCrashSweep is the crash-recovery acceptance sweep: >= 200 explored
// schedules (seed × crash point) in total and >= 20 on every algorithm,
// every one recovering its crash image with conservation intact and no
// durable-acked commit lost. Violations carry the full schedule for
// reproduction. Each algorithm must also have recovered at least one image
// that replayed commits — a sweep whose crash points all fell outside the
// schedules it ran would prove nothing.
func TestBankCrashSweep(t *testing.T) {
	seeds, crashPoints := 5, 12
	if testing.Short() {
		seeds, crashPoints = 3, 8
	}
	total := 0
	for _, algo := range crashAlgos {
		runs, audited, replayed := 0, 0, 0
		sc := bankCrashScenario(func(st persist.RecoveryStats) {
			audited++
			if st.Seq > 0 {
				replayed++
			}
		})
		for ca := 1; ca <= crashPoints; ca++ {
			cfg := Config{Algo: algo, Bug: fmt.Sprintf("crash@%d", ca)}
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				res, err := RunScenario(sc, cfg, NewPCT(seed, 3, 3, 256, 0.1))
				if err != nil {
					t.Fatal(err)
				}
				runs++
				if res.Outcome == OutcomeViolation {
					t.Fatalf("%s crash@%d seed %d: %s\n%s", algo, ca, seed, res.Violation, FormatTrace(res))
				}
			}
		}
		t.Logf("%s: %d crash schedules, %d images audited, %d with replayed commits", algo, runs, audited, replayed)
		if runs < 20 || replayed == 0 {
			t.Errorf("%s: %d schedules and %d non-empty crash images; want >= 20 and >= 1", algo, runs, replayed)
		}
		total += runs
	}
	if !testing.Short() && total < 200 {
		t.Errorf("swept %d crash schedules, want >= 200", total)
	}
}

// TestBankCrashFailsWhenNothingIsLogged: the scenario used to pass any crash
// plan on a driver whose commits never reached the log, because the plan
// never fired and there was no image to audit. Detaching the persister after
// setup reproduces such a driver.
func TestBankCrashFailsWhenNothingIsLogged(t *testing.T) {
	sc := bankCrashScenario(nil)
	build := sc.Build
	sc.Build = func(env *Env, cfg Config) ([]func(), func() error, error) {
		bodies, finish, err := build(env, cfg)
		env.M.SetPersister(nil)
		return bodies, finish, err
	}
	// Steer() with no legs runs each worker to completion in turn.
	res, err := RunScenario(sc, Config{Algo: "norec", Bug: "crash@3"}, Steer())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeViolation {
		t.Fatalf("outcome %s; a run that logged no worker commit must fail", res.Outcome)
	}
}

// TestBankCrashDeterminism: a crash plan must not break replayability — the
// snapshot trigger counts persist events, which are a pure function of the
// schedule.
func TestBankCrashDeterminism(t *testing.T) {
	cfg := Config{Scenario: "bank-crash", Algo: "rh-norec", Bug: "crash@7"}
	for _, seed := range []uint64{2, 11} {
		a := mustRun(t, cfg, NewPCT(seed, 3, 3, 128, 0.2))
		b := mustRun(t, cfg, NewPCT(seed, 3, 3, 128, 0.2))
		if !reflect.DeepEqual(a.Events, b.Events) || !reflect.DeepEqual(a.Choices, b.Choices) {
			t.Fatalf("seed %d: crash-plan runs diverge across identical seeds", seed)
		}
		if a.Outcome != b.Outcome {
			t.Fatalf("seed %d: outcomes %v vs %v", seed, a.Outcome, b.Outcome)
		}
	}
	// And a recorded crash run certifies under replay.
	res := mustRun(t, cfg, NewPCT(2, 3, 3, 128, 0.2))
	if _, err := NewTrace(cfg, res).Replay(); err != nil {
		t.Fatalf("crash-plan trace failed certification: %v", err)
	}
}

// TestCrashFixtureReplay certifies the checked-in crash-recovery trace: a
// schedule that crashes the redo log mid-run and recovers clean. Breaking
// the log's event determinism or the recovery cut shows up here.
func TestCrashFixtureReplay(t *testing.T) {
	tr, err := LoadTrace("testdata/bank-crash-rh-norec-seed3.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Replay(); err != nil {
		t.Fatalf("crash fixture no longer reproduces: %v\n(regenerate with: go run ./cmd/rhexplore -scenario bank-crash -algo rh-norec -seeds 1 -seed0 3 -fault-rate 0.1 -bug crash@9 -record internal/explore/testdata/bank-crash-rh-norec-seed3.json)", err)
	}
}
