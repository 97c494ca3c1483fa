// Package bench is the benchmark harness that regenerates the paper's
// evaluation (Figures 4–6): duration-based throughput runs of every TM
// algorithm over the RBTree microbenchmark and the STAMP-style
// applications, with the per-figure analysis rows (HTM aborts per
// operation, slow-path restarts, slow-path ratio, prefix/postfix success
// ratios). Every workload is a conformance.Instance, so every point also
// runs the workload's oracle and reports its violations.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/hynorec"
	"rhnorec/internal/lockelision"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/obs"
	"rhnorec/internal/persist"
	"rhnorec/internal/phasedtm"
	"rhnorec/internal/rhtl2"
	"rhnorec/internal/tl2"
	"rhnorec/internal/tm"
)

// Algo is a named TM-system constructor. STM algorithms ignore dev.
type Algo struct {
	Name string
	New  func(m *mem.Memory, dev *htm.Device) tm.System
	// Persist, when set, opens a fresh redo log (internal/persist)
	// for each of the algorithm's points on a temporary directory (honoring
	// $TMPDIR; CI points it at a RAM disk to isolate protocol overhead from
	// device latency), attaches it to the point's memory, and durable-acks
	// every 16-op worker batch — the service's ack granularity, where one
	// WaitDurable covers a fused batch of requests. It is the only
	// persistence switch of a benchmark point.
	Persist bool
	// MetaWords is the transactional memory, in words, the driver allocates
	// for metadata of its own at construction, when that is more than a
	// handful of global words (RH-TL2's stripe table). Whoever sizes the
	// arena for a given data set adds it; zero for every other driver.
	MetaWords int
}

// StandardAlgos returns the five systems the paper benchmarks (§3.1), in
// presentation order.
func StandardAlgos() []Algo {
	return []Algo{
		{Name: "lock-elision", New: func(m *mem.Memory, d *htm.Device) tm.System {
			return lockelision.New(m, d, tm.RetryPolicy{})
		}},
		{Name: "norec", New: func(m *mem.Memory, _ *htm.Device) tm.System {
			return norec.New(m, norec.Eager)
		}},
		{Name: "tl2", New: func(m *mem.Memory, _ *htm.Device) tm.System {
			return tl2.New(m, 0)
		}},
		hyNOrec(),
		rhNOrec(),
	}
}

// hyNOrec is the paper's "HY-NOrec": a row of the standard set and, being
// RH NOrec with both small transactions off, of the ablation set too.
func hyNOrec() Algo {
	return Algo{Name: "hy-norec", New: func(m *mem.Memory, d *htm.Device) tm.System {
		return core.NewHybridNOrec(m, d, tm.RetryPolicy{})
	}}
}

// rhNOrec is RH NOrec under the paper's static retry policy (§3.3): a
// row of the standard, ablation and persist-variant sets.
func rhNOrec() Algo {
	return Algo{Name: "rh-norec", New: func(m *mem.Memory, d *htm.Device) tm.System {
		return core.New(m, d, tm.RetryPolicy{})
	}}
}

// RHVariants returns the RH NOrec ablation variants of DESIGN.md §5: the
// full algorithm, prefix disabled, postfix disabled, both small
// transactions disabled (which is Hybrid NOrec, under its own name), and the
// lazy-NOrec STM contrast.
func RHVariants() []Algo {
	policy := func(name string, p tm.RetryPolicy) Algo {
		return Algo{Name: name, New: func(m *mem.Memory, d *htm.Device) tm.System {
			return core.New(m, d, p)
		}}
	}
	return []Algo{
		rhNOrec(),
		policy("rh-noprefix", tm.RetryPolicy{DisablePrefix: true}),
		policy("rh-nopostfix", tm.RetryPolicy{DisablePostfix: true}),
		hyNOrec(),
		{Name: "norec-lazy", New: func(m *mem.Memory, _ *htm.Device) tm.System {
			return norec.New(m, norec.Lazy)
		}},
		{Name: "rh-tl2", MetaWords: rhtl2.DefaultStripes, New: func(m *mem.Memory, d *htm.Device) tm.System {
			return rhtl2.New(m, d, tm.RetryPolicy{})
		}},
		{Name: "hy-norec-lazy", New: func(m *mem.Memory, d *htm.Device) tm.System {
			return hynorec.New(m, d, tm.RetryPolicy{})
		}},
		{Name: "phased-tm", New: func(m *mem.Memory, d *htm.Device) tm.System {
			return phasedtm.New(m, d, tm.RetryPolicy{})
		}},
	}
}

// PersistVariants returns the durability-overhead ablation over RH NOrec
// (DESIGN.md §15): persistence off and the group-fsync redo log. The
// persisting variant sets Algo.Persist, so each of its points opens a fresh
// redo log and every operation durable-acks. This is the algorithm set of
// the persist experiment, which CI's crash-recovery job runs as a smoke.
func PersistVariants() []Algo {
	persisting := rhNOrec()
	persisting.Name, persisting.Persist = "rh-norec+persist", true
	return []Algo{rhNOrec(), persisting}
}

// SerialAlgo is the global-lock oracle (lockelision.NewSerial). No experiment
// sweeps it by default; -algos serial selects it by name, as a same-run
// control or to read its observability output next to the real algorithms'.
func SerialAlgo() Algo {
	return Algo{Name: "serial", New: func(m *mem.Memory, _ *htm.Device) tm.System {
		return lockelision.NewSerial(m)
	}}
}

// AllAlgos returns every algorithm AlgoByName resolves, each name once, in
// lookup order: the serial oracle, then the standard, ablation and
// persist-variant sets. Of a name two sets share (rh-norec, hy-norec) the
// first entry is kept.
func AllAlgos() []Algo {
	all := []Algo{SerialAlgo()}
	seen := map[string]bool{all[0].Name: true}
	for _, set := range [][]Algo{StandardAlgos(), RHVariants(), PersistVariants()} {
		for _, a := range set {
			if !seen[a.Name] {
				seen[a.Name] = true
				all = append(all, a)
			}
		}
	}
	return all
}

// AlgoByName returns the algorithm with the given name (see AllAlgos).
func AlgoByName(name string) (Algo, bool) {
	for _, a := range AllAlgos() {
		if a.Name == name {
			return a, true
		}
	}
	return Algo{}, false
}

// PointConfig is the configuration a benchmark point takes from its sweep:
// every point of an experiment shares it. RunConfig and FigureConfig embed
// it, so each setting is declared once.
type PointConfig struct {
	Duration time.Duration
	// MemWords sizes the shared memory (default 1<<22).
	MemWords int
	// HTM configures the simulated hardware (zero fields take defaults).
	HTM htm.Config
	// Obs attaches an observability recorder (per-phase latency histograms
	// and the abort-cause taxonomy, see internal/obs) to every worker
	// thread. Off by default: the disabled path costs one nil check per
	// instrumentation site.
	Obs bool
	// ObsRing, when > 0 (and Obs is set), additionally attaches a
	// fixed-size per-thread event ring of that many entries, drained into
	// Result.Trace after the workers stop.
	ObsRing int
}

// RunConfig describes one benchmark point: a workload under one algorithm
// at one thread count. The algorithm alone decides whether the point
// persists (Algo.Persist).
type RunConfig struct {
	Workload Workload
	Algo     Algo
	Threads  int
	PointConfig
}

// Result is one benchmark point's outcome.
type Result struct {
	Workload   string
	Algo       string
	Threads    int
	Ops        uint64
	Elapsed    time.Duration
	Stats      tm.Stats
	Throughput float64 // committed operations per second
	// Obs is the merged observability snapshot across all workers; nil
	// unless PointConfig.Obs was set.
	Obs *obs.Snapshot
	// Trace holds each worker's drained event ring, sorted by thread
	// index; nil unless PointConfig.ObsRing was set.
	Trace []obs.ThreadRing
	// Violations counts the workload oracle's verdicts against the point:
	// in-flight reports, failed operations and a failed end-of-run Check.
	Violations uint64
	// CheckError is the end-of-run Check's failure message, empty on a
	// clean pass.
	CheckError string
}

// Run executes one benchmark point over a fresh instance of the workload,
// and is a conformance pass too: once the workers stop and the point's
// elapsed time is taken, Run calls the instance's Check. An operation that
// returns an error stops the point and fails it: the error names the
// workload, the algorithm and the first such error, and the Result beside
// it is still complete, so the point's violation count is not lost with it.
func Run(cfg RunConfig) (Result, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 22
	}
	// Each point allocates a fresh multi-megabyte memory; without a
	// collection barrier the garbage of earlier points taxes later ones,
	// biasing sweeps against whichever algorithm runs last.
	runtime.GC()
	m := mem.New(cfg.MemWords)
	// Durability (Algo.Persist): an armed point redo-logs every commit to a
	// throwaway directory and durable-acks in the worker loop below.
	var plog *persist.Log
	if cfg.Algo.Persist {
		dir, err := os.MkdirTemp("", "rhbench-persist-")
		if err != nil {
			return Result{}, fmt.Errorf("bench: persist dir: %w", err)
		}
		defer os.RemoveAll(dir)
		log, _, err := persist.Open(persist.Options{
			// The whole allocatable arena (address 0 is mem.Nil): workloads
			// allocate after New, so the range cannot be narrowed here.
			Dir: dir, Lo: mem.LineWords, Hi: mem.Addr(m.Size()),
		}, m.StorePlain, m.LoadPlain)
		if err != nil {
			return Result{}, fmt.Errorf("bench: persist open: %w", err)
		}
		plog = log
		defer plog.Close()
		m.SetPersister(plog)
	}
	dev := htm.NewDevice(m, cfg.HTM)
	dev.SetActiveThreads(cfg.Threads)
	sys := cfg.Algo.New(m, dev)

	inst := cfg.Workload.New()
	setup := sys.NewThread()
	if err := inst.Setup(setup); err != nil {
		return Result{}, fmt.Errorf("bench: %s setup on %s: %w", cfg.Workload.Name, cfg.Algo.Name, err)
	}
	setup.Close()

	var stop atomic.Bool
	var totalOps, violations atomic.Uint64
	report := func(string) { violations.Add(1) }
	var agg tm.Stats
	var aggMu sync.Mutex // guards agg, rings and opErr
	var rings []obs.ThreadRing
	var opErr error
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int, seed int64) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			if cfg.Obs {
				// Stats() hands back the thread's own Stats, so the recorder
				// can be attached here without any per-algorithm wiring.
				th.Stats().Obs = obs.NewRecorder(obs.Config{RingSize: cfg.ObsRing})
			}
			op := inst.NewWorker(th, seed, report)
			var ops uint64
			var failed error
		work:
			for !stop.Load() {
				// Batch the stop check to keep it off the hot path.
				for k := 0; k < 16; k++ {
					if failed = op(); failed != nil {
						violations.Add(1)
						stop.Store(true)
						break work
					}
					ops++
				}
				if plog != nil {
					// Durable ack at the batch boundary: everything appended
					// so far (including this batch's commits) must reach
					// stable storage before the next batch — the service's
					// ack granularity, where one WaitDurable covers a fused
					// batch of requests. Concurrent waiters batch further
					// behind one group-fsync pass.
					if err := plog.WaitDurable(plog.Appended()); err != nil {
						stop.Store(true)
						return
					}
				}
			}
			totalOps.Add(ops)
			aggMu.Lock()
			if opErr == nil {
				opErr = failed
			}
			if o := th.Stats().Obs; o.Ring() != nil {
				// Rings are per-thread (Merge does not combine them): drain
				// before the Stats merge folds the recorder into agg.
				rings = append(rings, o.DrainRing(id))
			}
			agg.Add(th.Stats())
			aggMu.Unlock()
		}(i, int64(i)*7919+17)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	if plog != nil {
		if err := plog.Err(); err != nil {
			return Result{}, fmt.Errorf("bench: persist: %w", err)
		}
	}
	elapsed := time.Since(start)
	ops := totalOps.Load()
	res := Result{
		Workload:   cfg.Workload.Name,
		Algo:       cfg.Algo.Name,
		Threads:    cfg.Threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Stats:      agg,
		Throughput: float64(ops) / elapsed.Seconds(),
	}
	if cfg.Obs {
		res.Obs = agg.Obs.Snapshot()
	}
	if len(rings) > 0 {
		sort.Slice(rings, func(i, j int) bool { return rings[i].Thread < rings[j].Thread })
		res.Trace = rings
	}
	if err := inst.Check(sys); err != nil {
		res.CheckError = err.Error()
		violations.Add(1)
	}
	res.Violations = violations.Load()
	if opErr != nil {
		return res, fmt.Errorf("bench: %s on %s: op failed: %w", res.Workload, res.Algo, opErr)
	}
	return res, nil
}
