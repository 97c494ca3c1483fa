// Command benchmark is this repository's one repeatable benchmark: four
// named workloads, the end-to-end numbers a user of the library or the KV
// service sees, and — with --trace 1 — a per-layer ledger measured from
// outside, by timing and counting calls into each layer's public API.
//
//	sh benchmark/run.sh                                   # every workload, plain
//	sh benchmark/run.sh --workload tm-capacity-mix --seed 7 --seconds 12 --trace 1
//	sh benchmark/run.sh --runs 10 --out benchmark/out/a.json   # a set of runs
//	sh benchmark/run.sh --compare benchmark/out/a.json benchmark/out/b.json
//
// README.md explains the protocol and why each choice was made.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// trialsPerRun fresh processes share one run's --seconds; each metric is
// the better quartile of the trials' values (see betterQuartile).
const trialsPerRun = 8

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the builder's
// contract fixes.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one run as stored in a result file (--out), which is what
// --compare reads.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of the spec)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out     = flag.String("out", filepath.Join("benchmark", "out", "result.json"), "result file")
		smoke   = flag.Bool("smoke", false, "about 1 % of the block sizes, one block: checks, not measurements")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
		spec    = flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it")
		role    = flag.String("role", "", "internal: trial, traced or probes (a child process of a run)")
		trial   = flag.Int("trial", 0, "internal: trial index")
	)
	flag.Parse()
	for _, v := range []string{"RHNOREC_POLICY", "RHNOREC_COMBINE", "RHNOREC_PERSIST", "RHNOREC_STRIPES"} {
		os.Unsetenv(v) // the library reads these; the benchmark measures its defaults
	}
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("--compare wants two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *role != "":
		child(*role, *name, *seed, *trial, *seconds, *smoke)
		return
	}
	if *seconds <= 0 {
		*seconds = runSeconds
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fatal("unknown workload %q", *name)
	}
	file := resultFile{}
	allCorrect := true
	// Round-robin over workloads, so host drift lands on all of them.
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			rec := runOne(w, *seed+uint64(i), *seconds, *trace, *smoke)
			allCorrect = allCorrect && rec.Correct
			file.Runs = append(file.Runs, rec)
		}
	}
	if err := writeJSON(*out, file); err != nil {
		fatal("%v", err)
	}
	if *runs > 1 {
		printSpreads(file.Runs)
	}
	if len(file.Runs) == 1 {
		line, _ := json.Marshal(file.Runs[0].result)
		fmt.Println(string(line))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child is the body of a trial process: pin GOMAXPROCS, do the role's
// work, print one JSON line.
func child(role, name string, seed uint64, trial int, seconds float64, smoke bool) {
	w := workloadByName(name)
	if w == nil {
		fatal("unknown workload %q", name)
	}
	// Every child runs on one P: two simulated threads interleave at the
	// simulator's yield points (DESIGN.md §1), and at 2 both the library
	// workloads (218k vs 307k txn/s between fresh processes) and the kv
	// workload (it then depends on where the hypervisor puts the two vCPUs)
	// were bimodal.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(seconds * float64(time.Second))
	var res *trialResult
	var err error
	switch role {
	case "trial":
		res, err = runTrial(w, seed, trial, budget, smoke)
	case "traced":
		res, err = runTraced(w, seed, smoke)
	case "probes":
		res, err = runProbes(w, seed, smoke)
	default:
		fatal("unknown role %q", role)
	}
	if err != nil {
		fatal("%s %s: %v", role, name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%s %s: %v", role, name, err)
	}
	fmt.Println(string(line))
}

// spawn runs one child process to its end and decodes the line it prints.
func spawn(role string, w *workload, seed uint64, trial int, seconds float64, smoke bool) (*trialResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--role", role, "--workload", w.name,
		"--seed", fmt.Sprint(seed), "--trial", fmt.Sprint(trial), "--seconds", fmt.Sprint(seconds)}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &trialResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s process output: %w", role, err)
	}
	return res, nil
}

// runOne is one run of one workload: its trial processes in sequence, the
// run's values from theirs, the printed table.
func runOne(w *workload, seed uint64, seconds float64, trace int, smoke bool) runRecord {
	rec := runRecord{Workload: w.name, Seed: seed, Trace: trace}
	rec.Metrics = map[string]value{}
	rec.Correct = true
	fmt.Printf("== %s  seed %d  trace %d  %s\n", w.name, seed, trace, w.why)
	fail := func(err error) runRecord {
		fmt.Printf("  FAILED: %v\n", err)
		rec.Correct = false
		if rec.Attempted == 0 {
			rec.Attempted, rec.Failed = 1, 1
		}
		return rec
	}
	noted := map[string]bool{}
	absorb := func(res *trialResult) {
		rec.Attempted += res.Attempted
		rec.Failed += res.Failed
		if res.CheckErr != "" {
			fmt.Printf("  CHECK FAILED: %s\n", res.CheckErr)
			rec.Correct = false
		}
		for _, n := range res.Notes {
			if !noted[n] {
				noted[n] = true
				fmt.Printf("  note: %s\n", n)
			}
		}
	}
	if trace == 0 {
		per := map[string][]float64{}
		for t := 0; t < trialsPerRun; t++ {
			res, err := spawn("trial", w, seed, t, seconds/trialsPerRun, smoke)
			if err != nil {
				return fail(err)
			}
			absorb(res)
			fmt.Printf("  trial %d: %d blocks %.2fs  %.0f ops/s (raw %.0f)  p50 %.2fus p99 %.2fus (%d samples)  setup %.4fs  rss %.1fMB  control %.3fns\n",
				t, res.Blocks, res.WallS, res.E2E["ops_per_s"], res.RawOpsPerS, res.E2E["op_p50_us"], res.Layer["workload.op_p99_us"],
				res.Samples, res.E2E["setup_s"], res.E2E["peak_rss_mb"], res.Layer["host.calib_ns"])
			for k, v := range res.E2E {
				per[k] = append(per[k], v)
			}
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = value{Value: betterQuartile(per[m.name], m.better == "higher"), Unit: m.unit}
		}
	} else {
		layer, err := tracedRun(w, seed, seconds, smoke, absorb)
		if err != nil {
			return fail(err)
		}
		for _, m := range perLayer {
			rec.Metrics[m.name] = value{Value: layer[m.name], Unit: m.unit}
		}
	}
	rec.Correct = rec.Correct && rec.Failed == 0
	list := endToEnd
	if trace != 0 {
		list = perLayer
	}
	for _, m := range list {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	return rec
}

// tracedRun is a --trace 1 run: one plain trial (the two-client numbers the
// overheads and the server's ledger come from), one traced one-client
// trial (exact counts and spans), and the layer probes.
func tracedRun(w *workload, seed uint64, seconds float64, smoke bool, absorb func(*trialResult)) (map[string]float64, error) {
	layer := map[string]float64{}
	var calib []float64
	for _, role := range []string{"trial", "traced", "probes"} {
		res, err := spawn(role, w, seed, 0, seconds/4, smoke)
		if err != nil {
			return nil, err
		}
		absorb(res)
		for k, v := range res.Layer {
			if k == "host.calib_ns" {
				calib = append(calib, v)
				continue
			}
			layer[k] = v
		}
	}
	layer["host.calib_ns"] = median(calib)
	return layer, nil
}
