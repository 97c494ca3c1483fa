// Package explore is a deterministic schedule-exploration and
// fault-injection harness for the TM systems in this repository: a
// model checker over the interleavings the paper's safety arguments
// quantify over.
//
// Worker goroutines are serialized through yield points injected at the
// internal/mem stripe-window and internal/htm device boundaries, so an
// entire multi-threaded run is a pure function of its Choice sequence.
// On top of that determinism sit: seeded random-priority exploration
// (PCT), preemption-bounded exhaustive DFS, a fault plane that injects
// spurious aborts and capacity squeezes at chosen yield points, trace
// record/replay, and delta-debugging shrinking of failing schedules to a
// minimal counterexample. Oracles — the tmtest invariant workloads and
// the internal/linearize checker — judge every explored run.
//
// cmd/rhexplore is the CLI; DESIGN.md §9 documents the yield-point map and
// the determinism argument; docs/EXPLORE.md walks a shrunk counterexample.
package explore

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Config describes one explorable run (one scenario × algorithm × shape).
// The zero value of a field takes the scenario's default. A Config plus a
// Choice sequence identifies a run exactly; traces serialize both.
type Config struct {
	// Scenario names a registered scenario (see Scenarios).
	Scenario string
	// Algo names a bench algorithm; required by TM scenarios, ignored by
	// raw-device ones.
	Algo string
	// Workers is the worker count.
	Workers int
	// Ops is the per-worker operation count.
	Ops int
	// MaxSteps bounds a run's schedule length (default 20000); schedules
	// that exceed it are OutcomeDiverged.
	MaxSteps int
	// Timeout is the per-step watchdog (default 10s).
	Timeout time.Duration
	// Bug names a planted defect to enable for the run (see Bugs); empty
	// runs the real protocols.
	Bug string
}

// Bugs lists the planted-defect names accepted in Config.Bug. "crash@N" is
// not a defect but a crash plan: the bank-crash scenario snapshots its
// persistence backend at the N-th persist event (1-based) and audits
// recovery from that image. It rides Config.Bug so traces serialize it and
// a recorded crash run replays as a self-contained fixture.
func Bugs() []string { return []string{"skip-validation", "crash@N"} }

func bugFlag(name string) (*atomic.Bool, error) {
	switch name {
	case "":
		return nil, nil
	case "skip-validation":
		return &htm.PlantedBugs.SkipValueRevalidation, nil
	default:
		if _, ok := crashPlan(name); ok {
			return nil, nil // consumed by the scenario, no global flag
		}
		return nil, fmt.Errorf("explore: unknown bug %q (have %v)", name, Bugs())
	}
}

// crashPlan parses a "crash@N" plan (N >= 1: crash at the N-th persist
// event).
func crashPlan(bug string) (int, bool) {
	s, ok := strings.CutPrefix(bug, "crash@")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Env is the per-run world handed to scenario builders: a fresh memory and
// device (plus a TM system for TM scenarios) and the violation log workers
// report into. Each run builds its own Env, so runs never share state.
type Env struct {
	M   *mem.Memory
	Dev *htm.Device
	Sys tm.System

	sched *scheduler
	// violations is appended by (serialized) workers and polled by the
	// scheduler after each step; the baton-passing channel protocol orders
	// every access.
	violations []string
}

// Violatef records a safety violation. Scenario bodies and oracles call it;
// the scheduler stops the run at the next step boundary.
func (e *Env) Violatef(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}

func (e *Env) firstViolation() string {
	if len(e.violations) == 0 {
		return ""
	}
	return e.violations[0]
}

// htmHook adapts the scheduler to the device boundary, translating the
// scheduler's fault decision into the device's abort directive.
type htmHook struct{ s *scheduler }

func (h htmHook) Yield(op htm.HookOp, a mem.Addr, info uint64) htm.Directive {
	return h.s.yield(htmPoint(op), a, info).directive()
}

// Normalize resolves scenario defaults and validates the config.
func (c Config) Normalize() (Config, error) {
	sc, ok := ScenarioByName(c.Scenario)
	if !ok {
		return c, fmt.Errorf("explore: unknown scenario %q (have %v)", c.Scenario, ScenarioNames())
	}
	return c.resolve(sc)
}

// resolve is Normalize against a scenario already in hand.
func (c Config) resolve(sc Scenario) (Config, error) {
	if sc.FixedWorkers > 0 {
		c.Workers = sc.FixedWorkers
	} else if c.Workers <= 0 {
		c.Workers = sc.DefaultWorkers
	}
	if c.Ops <= 0 {
		c.Ops = sc.DefaultOps
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 20000
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if sc.NeedsTM {
		if _, ok := bench.AlgoByName(c.Algo); !ok {
			return c, fmt.Errorf("explore: scenario %q needs a TM algorithm; unknown %q", sc.Name, c.Algo)
		}
	}
	if _, err := bugFlag(c.Bug); err != nil {
		return c, err
	}
	return c, nil
}

// RunOnce executes one run of cfg under strat and returns its result. The
// run owns the planted bug flag and the memory's and device's hooks while it
// executes; concurrent RunOnce calls are not supported.
func RunOnce(cfg Config, strat Strategy) (RunResult, error) {
	sc, ok := ScenarioByName(cfg.Scenario)
	if !ok {
		return RunResult{}, fmt.Errorf("explore: unknown scenario %q (have %v)", cfg.Scenario, ScenarioNames())
	}
	return RunScenario(sc, cfg, strat)
}

// RunScenario is RunOnce for a scenario that need not be in the registry:
// the seam a driver's own test uses to pin the one interleaving its
// assertion is about (see Steer) instead of hoping free-running goroutines
// produce it. cfg.Scenario is ignored.
func RunScenario(sc Scenario, cfg Config, strat Strategy) (RunResult, error) {
	cfg, err := cfg.resolve(sc)
	if err != nil {
		return RunResult{}, err
	}
	memWords := sc.MemWords
	if memWords <= 0 {
		memWords = 1 << 16
	}
	m := mem.NewStriped(memWords, mem.DefaultStripes)
	var seedCtr uint64
	// The device's arrival-order seed counter depends on goroutine
	// scheduling, the one source of nondeterminism the hooks do not
	// serialize; a counter of this run's own makes it bit-reproducible.
	devCfg := sc.HTM
	devCfg.SeedFn = func() uint64 {
		seedCtr++
		return seedCtr
	}
	dev := htm.NewDevice(m, devCfg)
	dev.SetActiveThreads(cfg.Workers)
	env := &Env{M: m, Dev: dev}
	if sc.NeedsTM {
		algo, _ := bench.AlgoByName(cfg.Algo)
		env.Sys = algo.New(m, dev)
	}
	s := &scheduler{timeout: cfg.Timeout, violated: env.firstViolation}
	env.sched = s

	// Build (setup included) runs before the hooks activate, so its memory
	// traffic is not part of the schedule.
	bodies, finish, err := sc.Build(env, cfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("explore: %s setup: %w", sc.Name, err)
	}
	if len(bodies) != cfg.Workers {
		return RunResult{}, fmt.Errorf("explore: %s built %d bodies for %d workers", sc.Name, len(bodies), cfg.Workers)
	}

	bug, _ := bugFlag(cfg.Bug)
	if bug != nil {
		bug.Store(true)
	}
	m.SetHook(memHook{s})
	dev.SetHook(htmHook{s})
	defer func() {
		m.SetHook(nil)
		dev.SetHook(nil)
		if bug != nil {
			bug.Store(false)
		}
	}()

	res := s.run(strat, bodies, cfg.MaxSteps)
	if res.Outcome == OutcomeOK && finish != nil {
		// Oracle checks run with the hooks already inactive.
		if err := finish(); err != nil {
			res.Outcome = OutcomeViolation
			res.Violation = err.Error()
		}
	}
	return res, nil
}

// Found is a violation located by an exploration strategy.
type Found struct {
	// Seed is the PCT seed that produced it (zero for DFS).
	Seed uint64
	// Result is the failing run.
	Result RunResult
}

// Tally counts a sweep's runs by outcome. Only an ok run reached its
// scenario's finish oracle and passed it: a diverged or stuck run ended
// before its oracle ran, so it checked nothing, and a sweep without a
// violation is clean only over its ok runs.
type Tally struct{ OK, Violation, Diverged, Stuck int }

func (t *Tally) add(o Outcome) {
	switch o {
	case OutcomeOK:
		t.OK++
	case OutcomeViolation:
		t.Violation++
	case OutcomeDiverged:
		t.Diverged++
	case OutcomeStuck:
		t.Stuck++
	}
}

// Runs is the number of runs the sweep executed.
func (t Tally) Runs() int { return t.OK + t.Violation + t.Diverged + t.Stuck }

// Unchecked is the number of runs that ended before their oracle: the
// diverged and the stuck ones.
func (t Tally) Unchecked() int { return t.Diverged + t.Stuck }

// ExplorePCT runs up to seeds PCT-scheduled runs (seeds baseSeed,
// baseSeed+1, ...) and returns the first violation, the tally of the runs
// executed, and any infrastructure error. depth and horizon parameterize
// PCT (see NewPCT); faultRate enables the fault plane.
func ExplorePCT(cfg Config, baseSeed uint64, seeds, depth, horizon int, faultRate float64) (*Found, Tally, error) {
	var t Tally
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, t, err
	}
	for i := 0; i < seeds; i++ {
		seed := baseSeed + uint64(i)
		strat := NewPCT(seed, cfg.Workers, depth, horizon, faultRate)
		res, err := RunOnce(cfg, strat)
		if err != nil {
			return nil, t, err
		}
		t.add(res.Outcome)
		if res.Outcome == OutcomeViolation {
			return &Found{Seed: seed, Result: res}, t, nil
		}
	}
	return nil, t, nil
}
