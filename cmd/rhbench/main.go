// Command rhbench regenerates the paper's evaluation figures over the
// simulated-HTM substrate.
//
// Usage:
//
//	rhbench -experiment fig4            # RBTree, 4/10/40% mutations
//	rhbench -experiment fig5            # Vacation-Low, Intruder, Genome
//	rhbench -experiment fig6            # Vacation-High, SSCA2, Yada
//	rhbench -experiment extra           # Kmeans, Labyrinth
//	rhbench -experiment structures      # rbtree vs skiplist vs sortedlist
//	rhbench -experiment ablation        # RH NOrec design-choice ablations
//	rhbench -experiment persist         # durability overhead: off vs group fsync
//	rhbench -experiment scenarios       # conformance-registry scenarios, invariant-checked
//	rhbench -experiment all             # fig4+fig5+fig6+extra
//	rhbench -experiment list            # list workloads and algorithms
//
// -experiment also accepts a comma-separated list (fig4,persist). Every
// name and flag value is checked before the first point runs and before
// -json/-trace are created; a usage error exits 2.
//
// Useful knobs: -duration per point, -repeat N (median of N runs),
// -threads CSV sweep, -algos CSV subset, -spurious environmental-abort
// probability, -tsv machine-readable rows, -json FILE machine-readable
// point dump (ops/sec per system per thread count). Every point runs the
// paper's static retry policy (§3.3: 10 hardware retries) and the
// simulator's fixed yield pacing and software-access cost model (DESIGN.md
// §6).
//
// Durability (docs/PERSIST.md) is named by the algorithm: the persist
// experiment sweeps rh-norec and rh-norec+persist (group fsync) side by
// side, and -algos can pick the persisting variant for any experiment. Its
// points log their commits to a throwaway directory and durable-ack every
// operation.
//
// Every point is also a conformance pass: its workload's oracle runs in
// flight and once the workers stop. After writing -json and -trace, rhbench
// exits 1 if any point reported a violation or a failed check, naming the
// first such point on stderr.
//
// rhbench compares algorithms inside one run. Whether a commit is faster or
// slower than its parent is answered by `sh benchmark/run.sh --compare`.
//
// Observability (docs/METRICS.md): -obs attaches per-thread latency
// histograms and the abort-cause taxonomy to every worker and embeds the
// merged snapshot in each -json point; -trace FILE additionally attaches
// per-thread event rings (-ringsize entries each) and writes their drained
// contents for cmd/rhtrace to replay.
//
// Throughput numbers are simulator-relative: compare algorithms at equal thread
// counts, not against the paper's absolute Haswell numbers (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "list", "fig4 | fig5 | fig6 | extra | structures | ablation | persist | scenarios | all | list (comma-separated ok)")
		duration   = flag.Duration("duration", 150*time.Millisecond, "measurement time per benchmark point")
		threadsCSV = flag.String("threads", "1,2,4,8,12,16", "thread counts to sweep")
		algosCSV   = flag.String("algos", "", "comma-separated algorithm subset (default: the paper's five)")
		spurious   = flag.Float64("spurious", 0.002, "per-operation spurious (environmental) HTM abort probability")
		tsv        = flag.Bool("tsv", false, "emit tab-separated rows instead of paper-style tables")
		repeat     = flag.Int("repeat", 1, "runs per point; the median-throughput run is reported")
		jsonPath   = flag.String("json", "", "also write every benchmark point to this file as a versioned JSON dump (see docs/METRICS.md)")
		obsOn      = flag.Bool("obs", false, "attach observability recorders (per-phase latency histograms, abort-cause taxonomy); adds an obs snapshot to each -json point")
		tracePath  = flag.String("trace", "", "write per-thread event-ring traces to this file (implies -obs plus rings; replay with rhtrace)")
		ringSize   = flag.Int("ringsize", 2048, "events held per thread ring for -trace")
		verbose    = flag.Bool("v", false, "print each point as it completes")
	)
	flag.Parse()

	if *experiment == "list" {
		fmt.Print("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf(" %s", e.Name)
		}
		fmt.Println(" all")
		fmt.Print("algorithms:")
		for _, a := range bench.StandardAlgos() {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Printf("\nbaseline (by name only): %s", bench.SerialAlgo().Name)
		fmt.Print("\nablation variants:")
		for _, a := range bench.RHVariants() {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Print("\npersist variants:")
		for _, a := range bench.PersistVariants() {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
		return
	}

	var experiments []bench.Experiment
	for _, n := range strings.Split(*experiment, ",") {
		n = strings.TrimSpace(n)
		names := []string{n}
		if n == "all" {
			names = []string{"fig4", "fig5", "fig6", "extra"}
		}
		for _, name := range names {
			e, ok := bench.ExperimentByName(name)
			if !ok {
				usage("unknown experiment %q", name)
			}
			experiments = append(experiments, e)
		}
	}
	threads, err := parseThreads(*threadsCSV)
	if err != nil {
		usage("%v", err)
	}
	cfg := bench.FigureConfig{
		PointConfig: bench.PointConfig{
			Duration: *duration,
			HTM:      htm.Config{SpuriousAbortProb: *spurious},
			Obs:      *obsOn || *tracePath != "",
		},
		Threads: threads,
		TSV:     *tsv,
		Repeat:  *repeat,
	}
	if *tracePath != "" {
		if *ringSize <= 0 {
			usage("-trace needs -ringsize > 0, got %d", *ringSize)
		}
		cfg.ObsRing = *ringSize
	}
	if *algosCSV != "" {
		for _, name := range strings.Split(*algosCSV, ",") {
			a, ok := bench.AlgoByName(strings.TrimSpace(name))
			if !ok {
				usage("unknown algorithm %q", name)
			}
			cfg.Algos = append(cfg.Algos, a)
		}
	}
	var rec *bench.JSONRecorder
	var jsonFile *os.File
	if *jsonPath != "" {
		// Open the output up front: a bad path should fail before the sweep
		// runs.
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		jsonFile = f
		rec = new(bench.JSONRecorder)
	}
	var traces []obs.Trace
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		traceFile = f
	}
	var bad string // the first point that broke its workload's oracle
	cfg.Progress = func(r bench.Result) {
		if bad == "" {
			bad = violation(r)
		}
		if rec != nil {
			rec.Record(r)
		}
		if traceFile != nil {
			traces = append(traces, obs.Trace{
				Workload: r.Workload, Algo: r.Algo, Threads: r.Threads, Rings: r.Trace,
			})
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "  %-14s %-14s t=%-3d %12.0f ops/s\n", r.Workload, r.Algo, r.Threads, r.Throughput)
		}
	}

	for _, e := range experiments {
		if err := e.Run(os.Stdout, cfg); err != nil {
			fatal(err)
		}
	}
	if jsonFile != nil {
		if err := rec.WriteJSON(jsonFile); err != nil {
			jsonFile.Close()
			fatal(err)
		}
		if err := jsonFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rhbench: wrote %d points to %s\n", rec.Len(), *jsonPath)
	}
	if traceFile != nil {
		if err := bench.WriteTraces(traceFile, traces); err != nil {
			traceFile.Close()
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rhbench: wrote %d traces to %s\n", len(traces), *tracePath)
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "rhbench: invariant violation:", bad)
		os.Exit(1)
	}
}

// violation describes a point whose workload oracle found violations or
// whose end-of-run check failed; "" for a clean point.
func violation(r bench.Result) string {
	if r.Violations == 0 && r.CheckError == "" {
		return ""
	}
	msg := fmt.Sprintf("%s on %s at %d threads: %d violation(s)", r.Workload, r.Algo, r.Threads, r.Violations)
	if r.CheckError != "" {
		return msg + ", check failed: " + r.CheckError
	}
	return msg + " reported in flight"
}

func parseThreads(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhbench:", err)
	os.Exit(1)
}

// usage reports a flag value that cannot be honoured and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhbench: "+format+"\n", args...)
	os.Exit(2)
}
