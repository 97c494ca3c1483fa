package explore

import (
	"fmt"
	"sync/atomic"
	"time"

	"rhnorec/internal/mem"
)

// The cooperative scheduler: worker goroutines run one at a time, handing
// control back at every yield point, so the scheduler's choice sequence
// fully determines the interleaving. The mechanism is baton passing over
// channels — the scheduler resumes exactly one worker and then blocks until
// that worker either parks at its next yield point or finishes. At every
// instant at most one of {scheduler, some worker} is running, and every
// handoff is a channel operation, so all scheduler and worker state below
// is ordered by happens-before without any locks (the -race tests in this
// package hold the proof to that claim). The one exception is the active
// flag: a worker the watchdog gave up on is running when the scheduler ends
// the run, so the flag that turns its hooks off is atomic, and every hook
// reads it before any other scheduler state.
//
// Liveness: yield points are placed so that no code path can park while
// holding a lock another worker's own slice could spin on — the locked span
// of mem.CommitWrites suppresses its nested yields via AtomicBegin/End, and
// every software-path spin (NOrec clock lock, RH NOrec serial lock, ...)
// loops through hooked plain-memory operations, so the scheduler regains
// control on every spin iteration. A schedule that livelocks such a spin
// (always resuming the spinner) burns its step budget and is reported as
// OutcomeDiverged, not a hang. The watchdog timeout catches anything that
// slips through as OutcomeStuck.

// killSignal unwinds a parked worker during teardown. TM drivers treat it
// like any foreign panic: they run their abort cleanup and re-panic, so the
// worker's goroutine exits cleanly without acquiring anything.
type killSignal struct{}

// wevent is a worker-to-scheduler report: parked at a yield point, or done.
type wevent struct {
	id       int
	done     bool
	point    Point
	addr     mem.Addr
	info     uint64
	panicked bool
	panicVal any
}

// worker is the scheduler's view of one goroutine.
type worker struct {
	id     int
	resume chan struct{}
	// fault and kill are written by the scheduler before a resume send and
	// read by the worker after the matching receive.
	fault Fault
	kill  bool
	done  bool
	// point/addr/info describe where the worker is parked.
	point Point
	addr  mem.Addr
	info  uint64
}

type scheduler struct {
	workers []*worker
	events  chan wevent
	// cur is the worker currently (or most recently) running.
	cur int
	// atomicDepth > 0 suppresses parking (a lock-holding critical section
	// is executing, see mem.Hook).
	atomicDepth int
	// active gates the hooks: false during setup, teardown and oracle
	// checks, so their memory traffic runs unscheduled.
	active atomic.Bool
	// violated polls the environment's violation log after every step.
	violated func() string
	timeout  time.Duration
}

// yield is the single entry point both hooks funnel into; it runs on the
// current worker's goroutine. It reports the fault directive the scheduler
// attached to the resume.
func (s *scheduler) yield(p Point, a mem.Addr, info uint64) Fault {
	if !s.active.Load() || s.atomicDepth > 0 {
		return FaultNone
	}
	w := s.workers[s.cur]
	s.events <- wevent{id: w.id, point: p, addr: a, info: info}
	<-w.resume
	if w.kill {
		panic(killSignal{})
	}
	return w.fault
}

func (s *scheduler) workerMain(w *worker, body func()) {
	defer func() {
		r := recover()
		if _, ok := r.(killSignal); ok {
			s.events <- wevent{id: w.id, done: true}
			return
		}
		s.events <- wevent{id: w.id, done: true, panicked: r != nil, panicVal: r}
	}()
	<-w.resume
	if w.kill {
		return
	}
	body()
}

// run executes bodies under strat's schedule. Each body is one worker; the
// run ends when all finish, a violation is detected, the step budget is
// exhausted, or the watchdog fires.
func (s *scheduler) run(strat Strategy, bodies []func(), maxSteps int) RunResult {
	n := len(bodies)
	s.workers = make([]*worker, n)
	// Buffered for teardown strays (a stuck worker may emit one last event
	// nobody is waiting for); during a healthy run the protocol is strictly
	// alternating and the buffer stays empty.
	s.events = make(chan wevent, 2*n+2)
	for i := range s.workers {
		s.workers[i] = &worker{id: i, resume: make(chan struct{}), point: PointStart}
	}
	for i, body := range bodies {
		go s.workerMain(s.workers[i], body)
	}
	s.active.Store(true)
	var res RunResult
	outcome := OutcomeOK
	live := n
	stuckID := -1
	for live > 0 {
		if len(res.Choices) >= maxSteps {
			outcome = OutcomeDiverged
			res.Violation = fmt.Sprintf("step budget %d exhausted with %d worker(s) unfinished", maxSteps, live)
			break
		}
		enabled := make([]int, 0, n)
		for _, w := range s.workers {
			if !w.done {
				enabled = append(enabled, w.id)
			}
		}
		pick, fault := strat.Next(len(res.Choices), s.cur, enabled)
		if pick < 0 || pick >= n || s.workers[pick].done {
			// Defensive: a strategy picked an unrunnable worker; fall back
			// to the canonical default so the recorded choice stays honest.
			pick = defaultChoice(s.cur, enabled)
			fault = FaultNone
		}
		w := s.workers[pick]
		if !w.point.injectable() {
			fault = FaultNone
		}
		w.fault = fault
		s.cur = pick
		w.resume <- struct{}{}
		var ev wevent
		select {
		case ev = <-s.events:
		case <-time.After(s.timeout):
			outcome = OutcomeStuck
			res.Violation = fmt.Sprintf("worker %d made no progress within %v (possible real deadlock)", pick, s.timeout)
			stuckID = pick
		}
		if outcome == OutcomeStuck {
			break
		}
		step := len(res.Choices)
		res.Choices = append(res.Choices, Choice{Worker: pick, Fault: fault})
		res.Enabled = append(res.Enabled, enabled)
		if ev.done {
			w.done = true
			w.point = PointDone
			live--
			res.Events = append(res.Events, Event{Step: step, Worker: ev.id, Point: PointDone, Fault: fault})
			if ev.panicked {
				outcome = OutcomeViolation
				res.Violation = fmt.Sprintf("worker %d panicked: %v", ev.id, ev.panicVal)
				break
			}
		} else {
			w.point, w.addr, w.info = ev.point, ev.addr, ev.info
			res.Events = append(res.Events, Event{Step: step, Worker: ev.id, Point: ev.point, Addr: ev.addr, Info: ev.info, Fault: fault})
		}
		if msg := s.violated(); msg != "" {
			outcome = OutcomeViolation
			res.Violation = msg
			break
		}
	}
	s.active.Store(false)
	s.teardown(stuckID)
	res.Outcome = outcome
	res.Steps = len(res.Choices)
	return res
}

// teardown unwinds every parked worker (sequentially: kill one, wait for
// its done event, move on) and joins them all, so no goroutine outlives the
// run and RunScenario may unhook the memory behind it. With the hooks
// inactive the unwind's cleanup traffic runs free; cleanup paths only
// release locks, never acquire, so each unwind terminates.
//
// A stuck worker is not parked and cannot be killed where it is: it spins
// outside every yield point, on something a parked worker holds. Unwinding
// the others releases it; from then on it either runs to its end with the
// hooks off, or — if it passed a hook's active check just before the run
// ended — parks at that yield point and is killed like the rest. Either way
// its done event is awaited last. Only a worker that never gets free (a
// deadlock in the code under test, not in the schedule) outlives the
// timeout and leaks.
func (s *scheduler) teardown(stuck int) {
	for _, w := range s.workers {
		if w.done || w.id == stuck {
			continue
		}
		s.kill(w)
		if !s.join(w) {
			return
		}
	}
	if stuck >= 0 {
		s.join(s.workers[stuck])
	}
}

// kill resumes a parked worker into its unwind.
func (s *scheduler) kill(w *worker) {
	w.kill = true
	w.resume <- struct{}{}
}

// join consumes worker events until w reports done, within the timeout.
// Only the stuck worker can report anything else here, or report done out
// of turn: its yield parks it, so it is killed; its done is recorded.
func (s *scheduler) join(w *worker) bool {
	deadline := time.After(s.timeout)
	for !w.done {
		select {
		case ev := <-s.events:
			if from := s.workers[ev.id]; ev.done {
				from.done = true
			} else {
				s.kill(from)
			}
		case <-deadline:
			return false
		}
	}
	return true
}

// defaultChoice is the canonical continuation every strategy shares: keep
// the current worker running if it still can (run-to-completion), else the
// lowest-id runnable worker.
func defaultChoice(cur int, enabled []int) int {
	for _, w := range enabled {
		if w == cur {
			return cur
		}
	}
	return enabled[0]
}

// memHook adapts the scheduler to the substrate boundary.
type memHook struct{ s *scheduler }

func (h memHook) Yield(op mem.HookOp, a mem.Addr) {
	h.s.yield(memPoint(op), a, 0)
}

// The depth is scheduler state like any other: touched only while the run
// is active, when exactly one worker holds the baton.
func (h memHook) AtomicBegin() {
	if h.s.active.Load() {
		h.s.atomicDepth++
	}
}

func (h memHook) AtomicEnd() {
	if h.s.active.Load() {
		h.s.atomicDepth--
	}
}
