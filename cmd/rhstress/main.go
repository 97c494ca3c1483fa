// Command rhstress is a randomized correctness harness: it drives every TM
// algorithm through the shared conformance registry's high-contention
// invariant workloads (internal/conformance: bank transfers, the red-black
// tree, the session store, the rate limiter, the inventory checkout, the
// graph fan-out) and reports any safety violation. Use it for long soak
// runs beyond what `go test` exercises; for deterministic exploration of
// the same workloads, see cmd/rhexplore.
//
// Usage:
//
//	rhstress -duration 10s -threads 8 [-algos rh-norec,hy-norec] \
//	         [-scenarios bank,session] [-spurious 0.001] [-seed 1]
//	rhstress -list
//
// Every run prints its seed so a failure reproduces with the same flags.
// A panic in a worker goroutine is recovered, counted as a violation and
// reported in the summary instead of killing the process mid-print.
// Exit status is non-zero if any violation was detected.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/conformance"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/persist"
	"rhnorec/internal/tm"
)

func main() {
	var (
		duration  = flag.Duration("duration", 2*time.Second, "soak time per algorithm per scenario")
		threads   = flag.Int("threads", 8, "worker threads")
		algosCSV  = flag.String("algos", "", "comma-separated algorithm subset (default: all)")
		scensCSV  = flag.String("scenarios", "", "comma-separated scenario subset (default: the whole registry)")
		listScens = flag.Bool("list", false, "list the registered scenarios and exit")
		spurious  = flag.Float64("spurious", 0.001, "spurious HTM abort probability")
		tinyHTM   = flag.Bool("tiny-htm", false, "use tiny HTM capacities to force the slow paths")
		seed      = flag.Int64("seed", 1, "base RNG seed (worker i uses seed+i)")
	)
	flag.Parse()
	if *listScens {
		for _, sc := range conformance.Scenarios() {
			fmt.Printf("%-10s %s\n", sc.Name, sc.Description)
			fmt.Printf("%-10s contention: %s\n", "", sc.Profile.Contention)
		}
		return
	}
	if *threads < 1 {
		usage("-threads %d: a soak needs at least one worker", *threads)
	}
	if *duration <= 0 {
		usage("-duration %v: a soak needs time to run", *duration)
	}

	var algos []bench.Algo
	if *algosCSV != "" {
		for _, name := range strings.Split(*algosCSV, ",") {
			a, ok := bench.AlgoByName(strings.TrimSpace(name))
			if !ok {
				usage("unknown algorithm %q", name)
			}
			algos = append(algos, a)
		}
	} else {
		// Every registered algorithm, less the +persist variants: they are
		// rh-norec again, and nothing here attaches a redo log.
		for _, a := range bench.AllAlgos() {
			if a.Persist == persist.ModeOff {
				algos = append(algos, a)
			}
		}
	}
	scenarios := conformance.Scenarios()
	if *scensCSV != "" {
		scenarios = nil
		for _, name := range strings.Split(*scensCSV, ",") {
			sc, ok := conformance.ByName(strings.TrimSpace(name))
			if !ok {
				usage("unknown scenario %q (have %v)", name, conformance.Names())
			}
			scenarios = append(scenarios, sc)
		}
	}
	hcfg := htm.Config{SpuriousAbortProb: *spurious}
	if *tinyHTM {
		hcfg.ReadCapacityLines = 16
		hcfg.WriteCapacityLines = 8
	}

	fmt.Printf("rhstress: seed=%d threads=%d spurious=%g\n", *seed, *threads, *spurious)
	failures := 0
	for _, algo := range algos {
		for _, sc := range scenarios {
			m := mem.New(1 << 22)
			dev := htm.NewDevice(m, hcfg)
			dev.SetActiveThreads(*threads)
			sys := algo.New(m, dev, tm.RetryPolicy{})
			start := time.Now()
			err := sc.Drive(sys, conformance.ScaleSoak, *threads, -1, *duration, *seed)
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
				failures++
			}
			fmt.Printf("%-14s %-10s %8s  %s\n", algo.Name, sc.Name, time.Since(start).Round(time.Millisecond), status)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "rhstress: %d scenario(s) failed (seed %d)\n", failures, *seed)
		os.Exit(1)
	}
}

// usage reports a flag value that cannot be honoured and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhstress: "+format+"\n", args...)
	os.Exit(2)
}
