package explore

// Bounded exhaustive exploration in the CHESS style (Musuvathi & Qadeer):
// stateless depth-first search over schedules, restarting the program for
// each one, with a preemption bound — schedules may switch away from a
// runnable worker at most `bound` times. The insight carried over from
// CHESS is that real concurrency bugs almost always need very few
// preemptions, so bounding them tames the exponential tree while keeping
// the bug-dense part. Determinism makes the restart-based search sound:
// the same choice prefix always reaches the same state, so the enabled
// sets recorded on one run remain valid when the search revisits that
// prefix on a later run.

// dfsFrame is one decision level of the search stack.
type dfsFrame struct {
	// enabled is the runnable set observed at this step (stable across
	// runs for a fixed prefix, by determinism).
	enabled []int
	// alts are the candidate workers, default continuation first, others
	// ascending; altIdx indexes the one the current path takes.
	alts   []int
	altIdx int
	// preempts counts preemptions on the path up to and including this
	// frame's current choice.
	preempts int
}

func (f *dfsFrame) choice() int { return f.alts[f.altIdx] }

// dfsStrategy replays the persisted stack prefix and extends it with
// default continuations as the run goes deeper.
type dfsStrategy struct {
	stack []dfsFrame
	bound int
}

func (d *dfsStrategy) Next(step, cur int, enabled []int) (int, Fault) {
	if step < len(d.stack) {
		return d.stack[step].choice(), FaultNone
	}
	def := defaultChoice(cur, enabled)
	parentPreempts := 0
	if step > 0 {
		parentPreempts = d.stack[step-1].preempts
	}
	alts := []int{def}
	if parentPreempts < d.bound {
		// Non-default choices cost one preemption when they switch away
		// from a still-runnable cur; when cur just finished, any switch is
		// forced and free — but then def is already the canonical pick and
		// the alternatives still enumerate every other worker.
		for _, w := range enabled {
			if w != def {
				alts = append(alts, w)
			}
		}
	}
	d.stack = append(d.stack, dfsFrame{
		enabled:  append([]int(nil), enabled...),
		alts:     alts,
		preempts: parentPreempts, // default continuation is preemption-free
	})
	return def, FaultNone
}

// preemptCost is 1 when switching away from a runnable previous worker.
func preemptCost(prev int, enabled []int, choice int) int {
	for _, w := range enabled {
		if w == prev {
			if choice != prev {
				return 1
			}
			return 0
		}
	}
	return 0
}

// ExploreDFS searches schedules of cfg exhaustively up to `bound`
// preemptions, executing at most maxRuns runs (0 means unbounded — only
// sensible for tiny configurations). It returns the first violation, the
// tally of the runs executed, and whether the bounded space was fully
// explored (false when maxRuns cut the search short). An explored space is
// proven safe only if no run in the tally diverged or got stuck.
func ExploreDFS(cfg Config, bound, maxRuns int) (*Found, Tally, bool, error) {
	var t Tally
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, t, false, err
	}
	var stack []dfsFrame
	for {
		if maxRuns > 0 && t.Runs() >= maxRuns {
			return nil, t, false, nil
		}
		strat := &dfsStrategy{stack: stack, bound: cfg.dfsBound(bound)}
		res, err := RunOnce(cfg, strat)
		if err != nil {
			return nil, t, false, err
		}
		t.add(res.Outcome)
		if res.Outcome == OutcomeViolation {
			return &Found{Result: res}, t, false, nil
		}
		stack = strat.stack
		// Backtrack: advance the deepest frame with an untried alternative;
		// frames above it are discarded and regrow on the next run.
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.altIdx+1 < len(top.alts) {
				top.altIdx++
				prev := 0
				parentPreempts := 0
				if len(stack) > 1 {
					parent := &stack[len(stack)-2]
					prev = parent.choice()
					parentPreempts = parent.preempts
				}
				top.preempts = parentPreempts + preemptCost(prev, top.enabled, top.choice())
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return nil, t, true, nil
		}
	}
}

// dfsBound clamps a nonpositive bound to the conventional default of 2
// preemptions — the depth at which CHESS found most of its bugs.
func (c Config) dfsBound(bound int) int {
	if bound <= 0 {
		return 2
	}
	return bound
}
