package explore

import "math/rand"

// Strategy decides, at each step, which runnable worker executes next and
// whether a fault rides along on the resume. step is the 0-based step
// index, cur the worker that ran the previous step, enabled the runnable
// worker ids in ascending order (never empty). Strategies are stateful and
// single-run unless documented otherwise.
type Strategy interface {
	Next(step, cur int, enabled []int) (worker int, fault Fault)
}

// PCT is probabilistic concurrency testing (Burckhardt et al., ASPLOS'10):
// workers get random priorities, the highest-priority runnable worker runs,
// and at d-1 random change points the running worker's priority drops below
// everyone's — which is exactly a commit-point stall when the change point
// lands inside a commit sequence. Any bug of "depth" d is found with
// probability ≥ 1/(n·k^(d-1)) per seed, so a few hundred seeds cover the
// shallow adversarial schedules the HyTM impossibility literature builds
// on. A nonzero fault rate additionally rolls per-step dice for injected
// spurious/capacity aborts.
type PCT struct {
	rng      *rand.Rand
	prio     []int
	nextLow  int
	change   map[int]struct{}
	faultOdd float64
}

// NewPCT builds a PCT strategy for a run of up to horizon steps over
// workers workers. depth is the PCT d parameter (d-1 change points); seed
// fixes everything, so equal seeds give equal schedules.
func NewPCT(seed uint64, workers, depth, horizon int, faultRate float64) *PCT {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := &PCT{
		rng:      rng,
		prio:     make([]int, workers),
		change:   make(map[int]struct{}, depth),
		faultOdd: faultRate,
	}
	for i, r := range rng.Perm(workers) {
		p.prio[i] = r + 1 // priorities 1..n; change points assign 0, -1, ...
	}
	if horizon < 2 {
		horizon = 2
	}
	for i := 0; i < depth-1; i++ {
		p.change[1+rng.Intn(horizon-1)] = struct{}{}
	}
	return p
}

func (p *PCT) Next(step, cur int, enabled []int) (int, Fault) {
	if _, ok := p.change[step]; ok && cur >= 0 && cur < len(p.prio) {
		p.prio[cur] = p.nextLow
		p.nextLow--
	}
	best := enabled[0]
	for _, w := range enabled[1:] {
		if w < len(p.prio) && p.prio[w] > p.prio[best] {
			best = w
		}
	}
	f := FaultNone
	if p.faultOdd > 0 && p.rng.Float64() < p.faultOdd {
		if p.rng.Intn(2) == 0 {
			f = FaultSpurious
		} else {
			f = FaultCapacity
		}
	}
	return best, f
}

// Leg is one stretch of a steered schedule: Worker runs, and only Worker,
// until Until reports true or Worker finishes. Until is consulted between
// steps, when every worker is parked, so it may read state the worker
// bodies write without further synchronization; nil means "to completion".
type Leg struct {
	Worker int
	Until  func() bool
}

// Steer is the strategy of a hand-written schedule: it follows legs in
// order and then hands the rest of the run to the default continuation. It
// exists so a test whose assertion is about one interleaving ("the slow
// writer's lock store lands between the fast path's begin and commit") can
// state that interleaving in terms of what the workers have done, not as
// step counts that shift with every protocol change.
func Steer(legs ...Leg) Strategy { return &steer{legs: legs} }

type steer struct{ legs []Leg }

func (s *steer) Next(step, cur int, enabled []int) (int, Fault) {
	for len(s.legs) > 0 {
		leg := s.legs[0]
		if leg.Until == nil || !leg.Until() {
			for _, w := range enabled {
				if w == leg.Worker {
					return w, FaultNone
				}
			}
		}
		s.legs = s.legs[1:]
	}
	return defaultChoice(cur, enabled), FaultNone
}

// replay re-executes a recorded choice sequence. Strict mode demands the
// recording stays applicable (every recorded worker still runnable at its
// step) and records the first divergence; lenient mode — used on shrinking
// candidates, whose spliced sequences routinely mis-align — substitutes the
// default continuation and keeps going. Both fall back to the default
// continuation once the recording is exhausted.
type replay struct {
	choices    []Choice
	strict     bool
	divergedAt int
}

func newReplay(choices []Choice, strict bool) *replay {
	return &replay{choices: choices, strict: strict, divergedAt: -1}
}

func (r *replay) Next(step, cur int, enabled []int) (int, Fault) {
	if step < len(r.choices) {
		c := r.choices[step]
		for _, w := range enabled {
			if w == c.Worker {
				return c.Worker, c.Fault
			}
		}
		if r.strict && r.divergedAt < 0 {
			r.divergedAt = step
		}
	}
	return defaultChoice(cur, enabled), FaultNone
}
