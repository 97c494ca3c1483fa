package bench

import (
	"fmt"
	"io"
	"sort"

	"rhnorec/internal/conformance"
	"rhnorec/internal/tm"
)

// Sweep holds one workload's results across algorithms and thread counts.
type Sweep struct {
	Workload string
	Threads  []int
	Order    []string
	Results  map[string][]Result
}

// DefaultThreads is the paper's sweep range on the 16-way Haswell.
func DefaultThreads() []int { return []int{1, 2, 4, 8, 12, 16} }

// RunSweep sweeps one workload across cfg's algorithms and thread counts —
// one column of a paper figure.
func RunSweep(wl Workload, cfg FigureConfig) (*Sweep, error) {
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
				res, err := Run(RunConfig{Workload: wl, Algo: algo, Threads: n, PointConfig: cfg.PointConfig})
				if err != nil {
					return nil, err
				}
				runs = append(runs, res)
				violations += res.Violations
				if checkError == "" {
					checkError = res.CheckError
				}
			}
			sort.Slice(runs, func(i, j int) bool { return runs[i].Throughput < runs[j].Throughput })
			res := runs[len(runs)/2] // median run
			res.Violations, res.CheckError = violations, checkError
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
	for _, name := range s.Order {
		fmt.Fprintf(w, "%-14s", name)
		for _, r := range s.Results[name] {
			fmt.Fprintf(w, "%12.3g", r.Throughput)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "invariant violations:")
	for _, name := range s.Order {
		fmt.Fprintf(w, "%-14s", name)
		for _, r := range s.Results[name] {
			if r.Violations == 0 {
				fmt.Fprintf(w, "%12s", "ok")
			} else {
				fmt.Fprintf(w, "%12d", r.Violations)
			}
		}
		fmt.Fprintln(w)
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

// FigureConfig parameterizes a whole figure reproduction: the per-point
// configuration every point shares, and the sweep around it.
type FigureConfig struct {
	PointConfig
	// Algos defaults to StandardAlgos, Threads to DefaultThreads.
	Algos   []Algo
	Threads []int
	// Repeat runs each point this many times and reports the
	// median-throughput run (noise control; default 1). The oracle's verdict
	// is not a median: the reported run carries the violations of every
	// repeat and the first failed check.
	Repeat int
	// Progress, when non-nil, receives each point as it completes.
	Progress func(Result)
	// TSV switches output from the paper-style table to tab-separated rows.
	TSV bool
}

// Experiment is one rhbench -experiment: a titled sweep of each of its
// workloads, in order, under the configured algorithms.
type Experiment struct {
	Name      string
	Title     string
	Workloads []Workload
	// defaults sets the FigureConfig fields the experiment picks for
	// itself, such as its algorithm set when the caller gave none.
	defaults func(*FigureConfig)
}

// Experiments returns every rhbench -experiment, in presentation order.
func Experiments() []Experiment {
	const size = 10000 // Figure 4's tree (paper §3.5)
	fig4 := []Workload{
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.04}),
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.10}),
		RBTree(RBTreeConfig{Size: size, MutationRatio: 0.40}),
	}
	return []Experiment{
		{Name: "fig4", Title: "Figure 4: 10,000-node RBTree", Workloads: fig4},
		// Figures 5 and 6 are the STAMP columns of paper §3.6.
		{Name: "fig5", Title: "Figure 5: Vacation-Low, Intruder, Genome",
			Workloads: []Workload{VacationLow(), Intruder(), Genome()}},
		{Name: "fig6", Title: "Figure 6: Vacation-High, SSCA2, Yada",
			Workloads: []Workload{VacationHigh(), SSCA2(), Yada()}},
		// The workloads the paper folds into the SSCA2 discussion.
		{Name: "extra", Title: "Extra: Kmeans, Labyrinth (\"similar to SSCA2\"), §3.6",
			Workloads: []Workload{Kmeans(), Labyrinth()}},
		{Name: "structures", Title: "Structures: rbtree, skiplist, sortedlist (same op mix)",
			Workloads: []Workload{
				RBTree(RBTreeConfig{Size: 2048, MutationRatio: 0.20}),
				SkipListWorkload(RBTreeConfig{Size: 2048, MutationRatio: 0.20}),
				SortedListWorkload(RBTreeConfig{Size: 128, MutationRatio: 0.20}),
			}},
		// Figure 4 under the RH NOrec design-choice ablations.
		{Name: "ablation", Title: "Figure 4: 10,000-node RBTree", Workloads: fig4,
			defaults: func(c *FigureConfig) {
				if len(c.Algos) == 0 {
					c.Algos = RHVariants()
				}
			}},
		// The durability-overhead sweep (DESIGN.md §15, docs/PERSIST.md):
		// every transaction read-modify-writes the same two shared lines
		// and durable-acks, off vs group fsync. Group fsync stays within a
		// small factor of persist-off because concurrent waiters amortize
		// one fsync pass per commit group. The persisting variant sets
		// Algo.Persist. CI's crash-recovery job runs it as a smoke.
		{Name: "persist", Title: "Persist: durable-acked hotspot (off vs group fsync)",
			Workloads: []Workload{Hotspot(HotspotConfig{Lines: 2})},
			defaults: func(c *FigureConfig) {
				if len(c.Algos) == 0 {
					c.Algos = PersistVariants()
				}
				if c.MemWords == 0 {
					// A smaller arena keeps allocation noise out of the
					// short CI points (and out of the log's persisted
					// range, which spans the whole memory).
					c.MemWords = 1 << 18
				}
			}},
		// Every conformance-registry scenario at soak scale under a
		// hybrid/STM cross-section: the sweep behind the CI
		// conformance-matrix gate.
		{Name: "scenarios", Title: "Scenarios: conformance registry at soak scale (invariant-checked)",
			Workloads: ScenarioWorkloads(conformance.ScaleSoak),
			defaults: func(c *FigureConfig) {
				if len(c.Algos) == 0 {
					for _, name := range []string{"lock-elision", "hy-norec", "rh-norec"} {
						a, _ := AlgoByName(name)
						c.Algos = append(c.Algos, a)
					}
				}
				if c.MemWords == 0 {
					// Every scenario's soak footprint is at most a few
					// hundred lines; the default multi-megabyte arena only
					// adds GC noise to short CI points.
					c.MemWords = 1 << 18
				}
			}},
	}
}

// ExperimentByName returns the experiment with the given name.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run sweeps each of the experiment's workloads and prints its tables to w.
// Every point is a conformance pass: its Result carries the workload
// oracle's verdict.
func (e Experiment) Run(w io.Writer, cfg FigureConfig) error {
	if e.defaults != nil {
		e.defaults(&cfg)
	}
	if !cfg.TSV {
		fmt.Fprintf(w, "==== %s ====\n", e.Title)
	}
	for _, wl := range e.Workloads {
		s, err := RunSweep(wl, cfg)
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
