// Package conformance is the shared workload registry: every invariant
// scenario the repository's harnesses drive — the tmtest conformance suite,
// the rhexplore schedule explorer and the rhbench sweeps (whose `-experiment
// scenarios` is the soak) — is registered here once, as a named entry with a
// setup phase, a per-operation worker, and an end-of-run invariant check.
//
// Instance is the repository's one workload interface. Beyond the
// registry's scenarios, the figure workloads of internal/bench (the ordered
// structures, the hotspot block) and every STAMP kernel under
// internal/stamp implement it too, so each benchmark point runs its
// workload's oracle and every kernel test is a Drive.
//
// Keeping one copy matters beyond hygiene: the explorer replays recorded
// schedules, so the worker logic driving a trace must be byte-for-byte the
// logic the other harnesses run, or a shrunk counterexample would not
// reproduce outside the explorer. Scenario workers therefore draw all
// randomness from the seeded RNG handed to NewWorker, draw it outside the
// transaction closures (a restart replays the same operation), and never
// read clocks or global state.
//
// The registry is also the row axis of CI's conformance gate: cmd/rhgate
// holds every (scenario × algo × threads) point of an rhbench dump made by
// sweeping these entries to zero violations and its constant speed and
// abort bounds (docs/CONFORMANCE.md).
package conformance

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rhnorec/internal/tm"
)

// Scale selects a scenario's parameter set. The same worker logic runs at
// every scale; only footprint and mix knobs change.
type Scale int

const (
	// ScaleExplore is the tiny deterministic shape the schedule explorer
	// drives: a handful of lines, so few schedules cover the interesting
	// interleavings. Changing an explore-scale config invalidates recorded
	// trace fixtures (internal/explore/testdata) — treat it as frozen.
	ScaleExplore Scale = iota
	// ScaleTest is the shape `go test` drives: small enough for six TM
	// drivers × every scenario in seconds, large enough to exercise real
	// conflict paths.
	ScaleTest
	// ScaleSoak is the full-contention shape rhbench drives.
	ScaleSoak
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleExplore:
		return "explore"
	case ScaleTest:
		return "test"
	case ScaleSoak:
		return "soak"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Report is the violation sink handed to scenario workers. Workers call it
// for safety violations observed in-transaction (opacity breaches, torn
// invariants); the harness decides whether that aborts a test, increments a
// bench counter, or fails an explored schedule.
type Report func(msg string)

// Instance is one materialized scenario run: Setup seeds the shared state,
// NewWorker returns one worker's single-operation closure (the harness
// loops it — a fixed count for tests and exploration, until a stop flag for
// soaks and bench sweeps), and Check is the end-of-run invariant oracle,
// run after every worker has finished.
type Instance interface {
	Setup(th tm.Thread) error
	// NewWorker must derive all randomness from seed so runs replay; the
	// returned closure performs exactly one logical operation per call.
	NewWorker(th tm.Thread, seed int64, report Report) func() error
	Check(sys tm.System) error
}

// Scenario is one registry entry.
type Scenario struct {
	Name string

	// ExploreWorkers/ExploreOps are the schedule explorer's default shape.
	ExploreWorkers int
	ExploreOps     int
	// MemWords sizes an explorer run's arena (0 = the explorer default).
	MemWords int

	// New materializes a fresh instance at the given scale.
	New func(scale Scale) Instance
}

// Scenarios returns the registry in presentation order.
func Scenarios() []Scenario {
	return []Scenario{
		bankScenario,
		rbtreeScenario,
		sessionScenario,
		ratelimitScenario,
		inventoryScenario,
		graphScenario,
	}
}

// Names lists the registered scenario names in order.
func Names() []string {
	var names []string
	for _, sc := range Scenarios() {
		names = append(names, sc.Name)
	}
	return names
}

// ByName finds a scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Drive runs one fresh instance of the scenario at the given scale end to
// end against sys (see the package-level Drive).
func (sc Scenario) Drive(sys tm.System, scale Scale, threads, ops int, seed int64) error {
	return Drive(sys, sc.Name, sc.New(scale), threads, ops, seed)
}

// Drive runs inst end to end against sys: setup, then threads workers —
// each running its operation closure ops times — then the invariant check.
// Worker panics are recovered and counted as violations (a crashed worker
// proves nothing about the survivors), so a Drive caller always gets a
// summary error, prefixed with name, instead of a dead process. Worker i seeds its RNG with seed+i.
// threads < 1 is an error: with no worker the check would pass over an
// untouched instance and prove nothing.
func Drive(sys tm.System, name string, inst Instance, threads, ops int, seed int64) error {
	if threads < 1 {
		return fmt.Errorf("%s: %d worker threads, need at least 1", name, threads)
	}
	setup := sys.NewThread()
	err := inst.Setup(setup)
	setup.Close()
	if err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	var (
		vlog violationLog
		wg   sync.WaitGroup
	)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					vlog.report(fmt.Sprintf("worker panic: %v", r))
				}
			}()
			th := sys.NewThread()
			defer th.Close()
			op := inst.NewWorker(th, seed, vlog.report)
			for j := 0; j < ops; j++ {
				if err := op(); err != nil {
					vlog.report(err.Error())
					return
				}
			}
		}(seed + int64(i))
	}
	wg.Wait()
	if err := vlog.err(name); err != nil {
		return err
	}
	if err := inst.Check(sys); err != nil {
		return fmt.Errorf("%s check: %w", name, err)
	}
	return nil
}

// violationLog collects safety violations across workers, keeping the first
// message for the summary error.
type violationLog struct {
	count atomic.Uint64
	mu    sync.Mutex
	first string
}

func (v *violationLog) report(msg string) {
	if v.count.Add(1) == 1 {
		v.mu.Lock()
		v.first = msg
		v.mu.Unlock()
	}
}

func (v *violationLog) err(scenario string) error {
	n := v.count.Load()
	if n == 0 {
		return nil
	}
	v.mu.Lock()
	first := v.first
	v.mu.Unlock()
	return fmt.Errorf("%s: %d violation(s); first: %s", scenario, n, first)
}
