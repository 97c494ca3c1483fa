// Command rhexplore explores schedules of the TM systems deterministically:
// seeded random-priority search (PCT), preemption-bounded exhaustive DFS,
// fault injection, trace record/replay, and counterexample shrinking.
//
//	rhexplore -scenario bank -algo rh-norec -strategy pct -seeds 200
//	rhexplore -scenario htm-opacity -bug skip-validation -expect-violation -max-shrunk-steps 12
//	rhexplore -scenario bank -algo hy-norec -strategy dfs -depth 2 -dfs-max-runs 2000
//	rhexplore -replay trace.json
//
// Exit status is 0 when the run matched expectations (no violation found,
// or -expect-violation and one was found and shrunk within bounds; for
// -replay, a certified reproduction) and 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rhnorec/internal/bench"
	"rhnorec/internal/explore"
)

func main() {
	var (
		scenario = flag.String("scenario", "bank", "scenario to explore (see -list)")
		algo     = flag.String("algo", "rh-norec", "TM algorithm for TM scenarios (see -list)")
		strategy = flag.String("strategy", "pct", "exploration strategy: pct | dfs")
		seeds    = flag.Int("seeds", 100, "pct: number of seeds to try")
		seed0    = flag.Uint64("seed0", 1, "pct: first seed")
		pctDepth = flag.Int("pct-depth", 3, "pct: bug depth d (d-1 priority change points)")
		pctHoriz = flag.Int("pct-horizon", 256, "pct: change-point horizon in steps")
		depth    = flag.Int("depth", 2, "dfs: preemption bound")
		dfsRuns  = flag.Int("dfs-max-runs", 2000, "dfs: max runs (0 = unbounded)")
		workers  = flag.Int("workers", 0, "worker count (0 = scenario default)")
		ops      = flag.Int("ops", 0, "ops per worker (0 = scenario default)")
		steps    = flag.Int("steps", 0, "max scheduler steps per run (0 = default)")
		faultPct = flag.Float64("fault-rate", 0, "pct: per-step injected-abort probability")
		bug      = flag.String("bug", "", "planted bug to enable (see -list)")
		record   = flag.String("record", "", "write a trace of the outcome to this file")
		replay   = flag.String("replay", "", "replay and certify a recorded trace instead of exploring")
		expect   = flag.Bool("expect-violation", false, "succeed only if a violation is found (CI planted-bug gate)")
		maxShr   = flag.Int("max-shrunk-steps", 0, "with -expect-violation: fail if the shrunk schedule exceeds this many steps")
		budget   = flag.Int("shrink-budget", 2000, "max replays the shrinker may spend")
		list     = flag.Bool("list", false, "list scenarios, algorithms and planted bugs, then exit")
		verbose  = flag.Bool("v", false, "print full event traces")
	)
	flag.Parse()

	if *list {
		fmt.Printf("scenarios: %s\n", strings.Join(explore.ScenarioNames(), ", "))
		var algos []string
		seen := map[string]bool{}
		for _, a := range append(bench.StandardAlgos(), bench.RHVariants()...) {
			if !seen[a.Name] {
				seen[a.Name] = true
				algos = append(algos, a.Name)
			}
		}
		fmt.Printf("algorithms: %s\n", strings.Join(algos, ", "))
		fmt.Printf("bugs: %s\n", strings.Join(explore.Bugs(), ", "))
		return
	}

	if *replay != "" {
		os.Exit(doReplay(*replay, *expect, *verbose))
	}

	cfg := explore.Config{
		Scenario: *scenario,
		Algo:     *algo,
		Workers:  *workers,
		Ops:      *ops,
		MaxSteps: *steps,
		Bug:      *bug,
	}
	if _, err := cfg.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var (
		found *explore.Found
		runs  explore.Tally
		err   error
	)
	switch *strategy {
	case "pct":
		fmt.Printf("pct: scenario=%s algo=%s seeds=%d..%d depth=%d fault-rate=%g bug=%q\n",
			*scenario, *algo, *seed0, *seed0+uint64(*seeds)-1, *pctDepth, *faultPct, *bug)
		found, runs, err = explore.ExplorePCT(cfg, *seed0, *seeds, *pctDepth, *pctHoriz, *faultPct)
	case "dfs":
		fmt.Printf("dfs: scenario=%s algo=%s preemption-bound=%d max-runs=%d bug=%q\n",
			*scenario, *algo, *depth, *dfsRuns, *bug)
		var complete bool
		found, runs, complete, err = explore.ExploreDFS(cfg, *depth, *dfsRuns)
		if err == nil && found == nil {
			switch {
			case complete && runs.Unchecked() == 0:
				fmt.Printf("search space exhausted: every schedule within %d preemption(s) is safe\n", *depth)
			case complete:
				fmt.Printf("search space exhausted, but %d schedule(s) within %d preemption(s) ended before their oracle\n",
					runs.Unchecked(), *depth)
			default:
				fmt.Printf("run budget exhausted before completing the bounded space\n")
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -strategy %q (want pct or dfs)\n", *strategy)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if found == nil {
		fmt.Printf("no violation in %d run(s): %d reached their oracle, %d diverged, %d stuck\n",
			runs.Runs(), runs.OK, runs.Diverged, runs.Stuck)
		if *record != "" {
			if code := recordOne(cfg, *seed0, *pctDepth, *pctHoriz, *faultPct, *record); code != 0 {
				os.Exit(code)
			}
		}
		if *expect {
			fmt.Fprintln(os.Stderr, "FAIL: expected a violation, found none")
			os.Exit(1)
		}
		return
	}

	fmt.Printf("VIOLATION after %d run(s)", runs.Runs())
	if found.Seed != 0 {
		fmt.Printf(" (seed %d)", found.Seed)
	}
	fmt.Printf(", %d steps: %s\n", found.Result.Steps, found.Result.Violation)
	if *verbose {
		fmt.Print(explore.FormatTrace(found.Result))
	}

	sr, ok := explore.Shrink(cfg, found.Result.Choices, *budget)
	if !ok {
		fmt.Fprintln(os.Stderr, "shrink failed to reproduce the violation (determinism bug?)")
		os.Exit(1)
	}
	fmt.Printf("shrunk to %d steps in %d replay(s):\n", len(sr.Choices), sr.Runs)
	fmt.Print(explore.FormatTrace(sr.Result))
	if *record != "" {
		tr := explore.NewTrace(cfg, sr.Result)
		if err := tr.Save(*record); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("recorded %s\n", *record)
	}

	if *expect {
		if *maxShr > 0 && len(sr.Choices) > *maxShr {
			fmt.Fprintf(os.Stderr, "FAIL: shrunk schedule has %d steps, limit %d\n", len(sr.Choices), *maxShr)
			os.Exit(1)
		}
		fmt.Println("ok: violation found and shrunk as expected")
		return
	}
	os.Exit(1)
}

// recordOne runs the first seed once and saves its trace — fixture
// generation for replay tests.
func recordOne(cfg explore.Config, seed uint64, depth, horizon int, faultRate float64, path string) int {
	norm, err := cfg.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := explore.RunOnce(cfg, explore.NewPCT(seed, norm.Workers, depth, horizon, faultRate))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	tr := explore.NewTrace(cfg, res)
	if err := tr.Save(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("recorded seed-%d run (%s, %d steps) to %s\n", seed, res.Outcome, res.Steps, path)
	return 0
}

// doReplay certifies a recorded trace: same outcome, same event digest.
func doReplay(path string, expect, verbose bool) int {
	tr, err := explore.LoadTrace(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("replaying %s: scenario=%s algo=%s recorded outcome=%s hash=%s\n",
		path, tr.Scenario, tr.Algo, tr.Outcome, tr.EventsHash)
	res, err := tr.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if verbose {
		fmt.Print(explore.FormatTrace(res))
	}
	fmt.Printf("certified: outcome %s reproduced, events hash matches\n", res.Outcome)
	if expect && res.Outcome != explore.OutcomeViolation {
		fmt.Fprintln(os.Stderr, "FAIL: expected a violation outcome")
		return 1
	}
	return 0
}
