package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// series collects one metric's values over the plain runs of one workload.
func series(runs []runRecord, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// printSpreads is the steadiness table of a set of runs: per workload and
// end-to-end metric, the median and the interquartile spread as a share of
// it, next to the bound the spread must stay within.
func printSpreads(runs []runRecord) {
	fmt.Printf("\n%-20s %-12s %5s %14s %9s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := series(runs, w.name, m.name)
			if len(v) < 2 {
				continue
			}
			mark := ""
			if s := spread(v); s > m.bound && m.name != "setup_s" {
				mark = "  WIDER THAN BOUND"
			} else if s > m.bound/3 && m.name != "setup_s" {
				mark = "  above a third of the bound"
			}
			fmt.Printf("%-20s %-12s %5d %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.name, len(v), median(v), 100*spread(v), 100*m.bound, mark)
		}
	}
}

// worseBy is how much b is worse than a, as a share of a (negative when b
// is better).
func worseBy(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference with its base, the bound and a verdict:
//
//	agree       b is not worse than a by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either set is wider than the bound,
//	            so the sets cannot tell (setup_s is judged on medians only)
//
// It returns the process exit code: non-zero on any worse or unresolved.
// Exact per-layer metrics of traced runs with the same seed must be
// bit-identical, and are checked too.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal("%v", err)
	}
	bad := 0
	fmt.Printf("a = %s\nb = %s\n", pathA, pathB)
	fmt.Printf("%-20s %-12s %13s %13s %22s %7s %8s  %s\n", "workload", "metric", "median a", "median b", "b worse than a by", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := series(a, w.name, m.name), series(b, w.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			by := worseBy(m, ma, mb)
			verdict := "agree"
			switch {
			case sp > m.bound && m.name != "setup_s":
				verdict = "unresolved"
				bad++
			case by > m.bound:
				verdict = "worse"
				bad++
			}
			fmt.Printf("%-20s %-12s %13.6g %13.6g %+12.2f%% of %-6.4g %6.0f%% %7.2f%%  %s\n",
				w.name, m.name, ma, mb, 100*by, ma, 100*m.bound, 100*sp, verdict)
		}
	}
	exactChecked, exactDiffer := 0, 0
	for _, ra := range a {
		if ra.Trace == 0 {
			continue
		}
		for _, rb := range b {
			if rb.Trace == 0 || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
				continue
			}
			for _, m := range perLayer {
				if !m.exact {
					continue
				}
				exactChecked++
				if ra.Metrics[m.name].Value != rb.Metrics[m.name].Value {
					exactDiffer++
					fmt.Printf("exact metric differs: %s seed %d %s: %v vs %v\n", ra.Workload, ra.Seed, m.name,
						ra.Metrics[m.name].Value, rb.Metrics[m.name].Value)
				}
			}
		}
	}
	if exactChecked > 0 {
		fmt.Printf("exact per-layer metrics: %d compared, %d differ\n", exactChecked, exactDiffer)
	}
	if bad+exactDiffer > 0 {
		fmt.Printf("%d end-to-end pairings worse or unresolved, %d exact metrics differ\n", bad, exactDiffer)
		return 1
	}
	return 0
}
