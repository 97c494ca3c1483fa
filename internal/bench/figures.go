package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rhnorec/internal/conformance"
	"rhnorec/internal/htm"
	"rhnorec/internal/persist"
	"rhnorec/internal/tm"
)

// SweepConfig describes one workload's thread sweep across algorithms —
// one column of a paper figure.
type SweepConfig struct {
	Factory  WorkloadFactory
	Algos    []Algo
	Threads  []int
	Duration time.Duration
	MemWords int
	// Stripes sets the memory's seqlock stripe count (see RunConfig).
	Stripes int
	// Persist enables the redo log for every point (see RunConfig).
	Persist persist.Mode
	HTM     htm.Config
	Policy  tm.RetryPolicy
	// Repeat runs each point this many times and reports the
	// median-throughput run (noise control; default 1). The oracle's verdict
	// is not a median: the reported run carries the violations of every
	// repeat and the first failed check.
	Repeat int
	// Progress, when non-nil, receives each point as it completes.
	Progress func(Result)
	// Obs/ObsRing enable per-thread observability (see RunConfig).
	Obs     bool
	ObsRing int
}

// Sweep holds one workload's results across algorithms and thread counts.
type Sweep struct {
	Workload string
	Threads  []int
	Order    []string
	Results  map[string][]Result
}

// DefaultThreads is the paper's sweep range on the 16-way Haswell.
func DefaultThreads() []int { return []int{1, 2, 4, 8, 12, 16} }

// RunSweep executes the sweep.
func RunSweep(cfg SweepConfig) (*Sweep, error) {
	if len(cfg.Algos) == 0 {
		cfg.Algos = StandardAlgos()
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = DefaultThreads()
	}
	if cfg.Repeat <= 0 {
		cfg.Repeat = 1
	}
	s := &Sweep{Threads: cfg.Threads, Results: make(map[string][]Result)}
	for _, algo := range cfg.Algos {
		s.Order = append(s.Order, algo.Name)
		for _, n := range cfg.Threads {
			runs := make([]Result, 0, cfg.Repeat)
			var violations uint64
			var checkError string
			for r := 0; r < cfg.Repeat; r++ {
				res, err := Run(RunConfig{
					Workload: cfg.Factory(),
					Algo:     algo,
					Threads:  n,
					Duration: cfg.Duration,
					MemWords: cfg.MemWords,
					Stripes:  cfg.Stripes,
					Persist:  cfg.Persist,
					HTM:      cfg.HTM,
					Policy:   cfg.Policy,
					Obs:      cfg.Obs,
					ObsRing:  cfg.ObsRing,
				})
				if err != nil {
					return nil, err
				}
				runs = append(runs, res)
				if res.Violations != nil {
					violations += *res.Violations
				}
				if checkError == "" {
					checkError = res.CheckError
				}
			}
			sort.Slice(runs, func(i, j int) bool { return runs[i].Throughput < runs[j].Throughput })
			res := runs[len(runs)/2] // median run
			if res.Violations != nil {
				res.Violations, res.CheckError = &violations, checkError
			}
			s.Workload = res.Workload
			s.Results[algo.Name] = append(s.Results[algo.Name], res)
			if cfg.Progress != nil {
				cfg.Progress(res)
			}
		}
	}
	return s, nil
}

// Print renders the sweep in the paper's figure layout: a throughput row
// block followed by the per-hybrid analysis rows (Figure 4's rows 2–5).
func (s *Sweep) Print(w io.Writer) {
	fmt.Fprintf(w, "workload: %s\n", s.Workload)
	fmt.Fprintf(w, "%-14s", "threads")
	for _, n := range s.Threads {
		fmt.Fprintf(w, "%12d", n)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "throughput (ops/sec):")
	checked := false
	for _, name := range s.Order {
		fmt.Fprintf(w, "%-14s", name)
		for _, r := range s.Results[name] {
			fmt.Fprintf(w, "%12.3g", r.Throughput)
			if r.Violations != nil {
				checked = true
			}
		}
		fmt.Fprintln(w)
	}
	if checked {
		fmt.Fprintln(w, "invariant violations:")
		for _, name := range s.Order {
			fmt.Fprintf(w, "%-14s", name)
			for _, r := range s.Results[name] {
				switch {
				case r.Violations == nil:
					fmt.Fprintf(w, "%12s", "-")
				case *r.Violations == 0:
					fmt.Fprintf(w, "%12s", "ok")
				default:
					fmt.Fprintf(w, "%12d", *r.Violations)
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, name := range s.Order {
		if name != "hy-norec" && name != "rh-norec" {
			continue
		}
		fmt.Fprintf(w, "analysis: %s\n", name)
		rows := []struct {
			label string
			get   func(st *tm.Stats) float64
		}{
			{"  conflicts/op", func(st *tm.Stats) float64 { return st.ConflictAbortsPerOp() }},
			{"  capacity/op", func(st *tm.Stats) float64 { return st.CapacityAbortsPerOp() }},
			{"  restarts/slow", func(st *tm.Stats) float64 { return st.RestartsPerSlowPath() }},
			{"  slow-ratio", func(st *tm.Stats) float64 { return st.SlowPathRatio() }},
		}
		if name == "rh-norec" {
			rows = append(rows,
				struct {
					label string
					get   func(st *tm.Stats) float64
				}{"  prefix-succ", func(st *tm.Stats) float64 { return st.PrefixSuccessRatio() }},
				struct {
					label string
					get   func(st *tm.Stats) float64
				}{"  postfix-succ", func(st *tm.Stats) float64 { return st.PostfixSuccessRatio() }},
			)
		}
		for _, row := range rows {
			fmt.Fprintf(w, "%-14s", row.label)
			for i := range s.Results[name] {
				fmt.Fprintf(w, "%12.4f", row.get(&s.Results[name][i].Stats))
			}
			fmt.Fprintln(w)
		}
	}
}

// PrintTSV renders the sweep as one tab-separated row per point, with a
// header, for downstream plotting.
func (s *Sweep) PrintTSV(w io.Writer) {
	fmt.Fprintln(w, "workload\talgo\tthreads\tops\tthroughput\tconflicts_per_op\tcapacity_per_op\trestarts_per_slow\tslow_ratio\tprefix_succ\tpostfix_succ")
	for _, name := range s.Order {
		for i := range s.Results[name] {
			r := &s.Results[name][i]
			st := &r.Stats
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%.6f\t%.6f\t%.6f\t%.6f\t%.4f\t%.4f\n",
				s.Workload, name, r.Threads, r.Ops, r.Throughput,
				st.ConflictAbortsPerOp(), st.CapacityAbortsPerOp(),
				st.RestartsPerSlowPath(), st.SlowPathRatio(),
				st.PrefixSuccessRatio(), st.PostfixSuccessRatio())
		}
	}
}

// FigureConfig parameterizes a whole figure reproduction.
type FigureConfig struct {
	Algos    []Algo
	Threads  []int
	Duration time.Duration
	MemWords int
	// Stripes sets the memory's seqlock stripe count (see RunConfig).
	Stripes int
	// Persist enables the redo log for every point (see RunConfig).
	Persist persist.Mode
	HTM     htm.Config
	Policy  tm.RetryPolicy
	// Repeat runs each point this many times and keeps the
	// median-throughput run (noise control; default 1).
	Repeat   int
	Progress func(Result)
	// TSV switches output from the paper-style table to tab-separated rows.
	TSV bool
	// Obs/ObsRing enable per-thread observability (see RunConfig).
	Obs     bool
	ObsRing int
}

func (c FigureConfig) sweep(f WorkloadFactory) SweepConfig {
	return SweepConfig{
		Factory: f, Algos: c.Algos, Threads: c.Threads, Duration: c.Duration,
		MemWords: c.MemWords, Stripes: c.Stripes,
		Persist: c.Persist, HTM: c.HTM, Policy: c.Policy,
		Repeat: c.Repeat, Progress: c.Progress, Obs: c.Obs, ObsRing: c.ObsRing,
	}
}

func runAndPrint(w io.Writer, title string, cfg FigureConfig, factories []WorkloadFactory) error {
	if !cfg.TSV {
		fmt.Fprintf(w, "==== %s ====\n", title)
	}
	for _, f := range factories {
		s, err := RunSweep(cfg.sweep(f))
		if err != nil {
			return err
		}
		if cfg.TSV {
			s.PrintTSV(w)
			continue
		}
		s.Print(w)
		fmt.Fprintln(w)
	}
	return nil
}

// Structures runs the ordered-structure comparison (rbtree vs skip list vs
// sorted list) under the configured algorithms.
func Structures(w io.Writer, cfg FigureConfig) error {
	return runAndPrint(w, "Structures: rbtree, skiplist, sortedlist (same op mix)", cfg,
		[]WorkloadFactory{
			RBTree(RBTreeConfig{Size: 2048, MutationRatio: 0.20}),
			SkipListWorkload(RBTreeConfig{Size: 2048, MutationRatio: 0.20}),
			SortedListWorkload(RBTreeConfig{Size: 128, MutationRatio: 0.20}),
		})
}

// Figure4 reproduces the RBTree figure: 10,000 nodes at 4%, 10% and 40%
// mutation ratios (paper §3.5).
func Figure4(w io.Writer, cfg FigureConfig) error {
	const size = 10000
	return runAndPrint(w, "Figure 4: 10,000-node RBTree", cfg, []WorkloadFactory{
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.04}),
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.10}),
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.40}),
	})
}

// Figure5 reproduces the Vacation-Low, Intruder and Genome columns (paper
// §3.6).
func Figure5(w io.Writer, cfg FigureConfig) error {
	return runAndPrint(w, "Figure 5: Vacation-Low, Intruder, Genome", cfg,
		[]WorkloadFactory{VacationLow(), Intruder(), Genome()})
}

// Figure6 reproduces the Vacation-High, SSCA2 and Yada columns (paper
// §3.6).
func Figure6(w io.Writer, cfg FigureConfig) error {
	return runAndPrint(w, "Figure 6: Vacation-High, SSCA2, Yada", cfg,
		[]WorkloadFactory{VacationHigh(), SSCA2(), Yada()})
}

// DisjointFigure runs the disjoint-footprint scaling workload: every
// thread commits write transactions over its own private block of cache
// lines, so under the striped substrate no two commits ever touch the
// same stripe. Sweep it at -stripes 1 versus the default to isolate the
// substrate-level commit serialization that striping removes.
func DisjointFigure(w io.Writer, cfg FigureConfig) error {
	return runAndPrint(w, "Disjoint: per-thread private lines (stripe-parallel commits)", cfg,
		[]WorkloadFactory{Disjoint(DisjointConfig{Lines: 4})})
}

// PersistFigure runs the durability-overhead sweep (DESIGN.md §15,
// docs/PERSIST.md): the hotspot workload — every transaction
// read-modify-writes the same two shared lines, and every operation
// durable-acks before the next one — under the persist variants. The
// shape to expect: group fsync stays within a small factor of
// persist-off because concurrent waiters amortize one fsync pass per
// commit group, while fsync-per-commit pays a full fsync inside every
// commit's append (serialized under the commit window) and falls off a
// cliff as threads grow. The variants pin their own modes, so a sweep-level
// mode is dropped rather than allowed to arm the persist-off row. CI's
// crash-recovery job runs this sweep as a schema-validated smoke.
func PersistFigure(w io.Writer, cfg FigureConfig) error {
	if len(cfg.Algos) == 0 {
		cfg.Algos = PersistVariants()
	}
	cfg.Persist = persist.ModeOff
	if cfg.MemWords == 0 {
		// The hotspot touches a handful of lines; a smaller arena keeps
		// allocation noise out of the short CI points (and out of the log's
		// persisted range bound, which spans the whole memory).
		cfg.MemWords = 1 << 18
	}
	return runAndPrint(w, "Persist: durable-acked hotspot (off vs group fsync vs fsync-per-commit)", cfg,
		[]WorkloadFactory{Hotspot(HotspotConfig{Lines: 2})})
}

// ScenariosFigure runs every conformance-registry scenario (bank, rbtree,
// session, ratelimit, inventory, graph) at soak scale under a hybrid/STM
// cross-section. Each point doubles as a conformance pass: the scenario's
// oracle runs alongside the workers and at the end of the point, and the
// violation count rides into the JSON dump for cmd/rhgate's
// zero-violations budget. This is the sweep behind the CI
// conformance-matrix gate.
func ScenariosFigure(w io.Writer, cfg FigureConfig) error {
	if len(cfg.Algos) == 0 {
		cfg.Algos = []Algo{}
		for _, name := range []string{"lock-elision", "hy-norec", "rh-norec"} {
			a, _ := AlgoByName(name)
			cfg.Algos = append(cfg.Algos, a)
		}
	}
	if cfg.MemWords == 0 {
		// Every scenario's soak footprint is at most a few hundred lines; the
		// default multi-megabyte arena only adds GC noise to short CI points.
		cfg.MemWords = 1 << 18
	}
	return runAndPrint(w, "Scenarios: conformance registry at soak scale (invariant-checked)", cfg,
		ScenarioWorkloads(conformance.ScaleSoak))
}

// Extra reproduces the workloads the paper folds into the SSCA2 discussion
// (Kmeans and Labyrinth, §3.6) plus Bayes, which the paper omits for
// inconsistent behaviour (no claims are made about it).
func Extra(w io.Writer, cfg FigureConfig) error {
	return runAndPrint(w, "Extra: Kmeans, Labyrinth (\"similar to SSCA2\"), Bayes (omitted by the paper), §3.6", cfg,
		[]WorkloadFactory{Kmeans(), Labyrinth(), Bayes()})
}
