package bench_test

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/conformance"
	"rhnorec/internal/tm"
)

func TestRunSinglePoint(t *testing.T) {
	algo, ok := bench.AlgoByName("rh-norec")
	if !ok {
		t.Fatal("rh-norec not registered")
	}
	res, err := bench.Run(bench.RunConfig{
		Workload:    bench.RBTree(bench.RBTreeConfig{Size: 256, MutationRatio: 0.1}),
		Algo:        algo,
		Threads:     2,
		PointConfig: bench.PointConfig{Duration: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Error("no operations completed")
	}
	if res.Throughput <= 0 {
		t.Error("throughput not positive")
	}
	if res.Stats.Commits == 0 {
		t.Error("no commits recorded")
	}
	if res.Workload != "rbtree-10" || res.Algo != "rh-norec" || res.Threads != 2 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if res.Violations != 0 || res.CheckError != "" {
		t.Errorf("oracle verdict: %d violations, check error %q", res.Violations, res.CheckError)
	}
}

func TestStandardAlgosComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range bench.StandardAlgos() {
		names[a.Name] = true
	}
	for _, want := range []string{"lock-elision", "norec", "tl2", "hy-norec", "rh-norec"} {
		if !names[want] {
			t.Errorf("missing standard algorithm %q", want)
		}
	}
	if _, ok := bench.AlgoByName("nope"); ok {
		t.Error("AlgoByName matched a bogus name")
	}
}

func TestAllWorkloadsRunOnAllAlgos(t *testing.T) {
	workloads := map[string]bench.Workload{
		"rbtree":        bench.RBTree(bench.RBTreeConfig{Size: 128, MutationRatio: 0.2}),
		"vacation-low":  bench.VacationLow(),
		"vacation-high": bench.VacationHigh(),
		"intruder":      bench.Intruder(),
		"genome":        bench.Genome(),
		"ssca2":         bench.SSCA2(),
		"kmeans":        bench.Kmeans(),
		"labyrinth":     bench.Labyrinth(),
		"yada":          bench.Yada(),
		"bayes":         bench.Bayes(),
		"skiplist":      bench.SkipListWorkload(bench.RBTreeConfig{Size: 128, MutationRatio: 0.2}),
		"sortedlist":    bench.SortedListWorkload(bench.RBTreeConfig{Size: 64, MutationRatio: 0.2}),
	}
	for wname, wl := range workloads {
		for _, algo := range bench.StandardAlgos() {
			t.Run(wname+"/"+algo.Name, func(t *testing.T) {
				res, err := bench.Run(bench.RunConfig{
					Workload:    wl,
					Algo:        algo,
					Threads:     2,
					PointConfig: bench.PointConfig{Duration: 15 * time.Millisecond},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 {
					t.Error("no operations completed")
				}
				if res.Violations != 0 || res.CheckError != "" {
					t.Errorf("%d violations, check error %q", res.Violations, res.CheckError)
				}
			})
		}
	}
}

func TestSweepPrintFormat(t *testing.T) {
	s, err := bench.RunSweep(bench.RBTree(bench.RBTreeConfig{Size: 64, MutationRatio: 0.4}), bench.FigureConfig{
		Threads:     []int{1, 2},
		PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	for _, want := range []string{
		"workload: rbtree-40",
		"throughput (ops/sec):",
		"invariant violations:",
		"lock-elision",
		"rh-norec",
		"analysis: hy-norec",
		"analysis: rh-norec",
		"prefix-succ",
		"postfix-succ",
		"conflicts/op",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultThreadsMatchPaperRange(t *testing.T) {
	ths := bench.DefaultThreads()
	if ths[0] != 1 || ths[len(ths)-1] != 16 {
		t.Errorf("DefaultThreads = %v, want 1..16", ths)
	}
}

func TestProgressCallback(t *testing.T) {
	count := 0
	_, err := bench.RunSweep(bench.SSCA2(), bench.FigureConfig{
		Algos:       bench.StandardAlgos()[:2],
		Threads:     []int{1},
		PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
		Progress:    func(bench.Result) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("progress fired %d times, want 2", count)
	}
}

var errBoom = errors.New("boom")

// failNth is a workload whose op fails on its n-th call, counted across
// threads, and succeeds on every other.
type failNth struct {
	calls atomic.Int64
	n     int64
}

func (w *failNth) Setup(tm.Thread) error { return nil }
func (w *failNth) NewWorker(tm.Thread, int64, conformance.Report) func() error {
	return func() error {
		if w.calls.Add(1) == w.n {
			return errBoom
		}
		return nil
	}
}
func (w *failNth) Check(tm.System) error { return nil }

// TestRunReportsFailingOp: a worker that dies of an op error must fail the
// point, not leave the survivors' throughput standing as the result.
func TestRunReportsFailingOp(t *testing.T) {
	algo, _ := bench.AlgoByName("rh-norec")
	res, err := bench.Run(bench.RunConfig{
		Workload:    bench.Workload{Name: "fail-nth", New: func() conformance.Instance { return &failNth{n: 100} }},
		Algo:        algo,
		Threads:     2,
		PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run error = %v, want it to wrap the op's error", err)
	}
	if res.Violations != 1 {
		t.Errorf("violations = %d, want 1 (the failed op)", res.Violations)
	}
	for _, want := range []string{"fail-nth", "rh-norec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %q does not name %q", err, want)
		}
	}
}

// flakyOracle is a workload whose bad instance reports two in-flight
// violations and fails its end check, and whose op is slow there, so of
// three repeats it is the lowest-throughput run and never the median.
type flakyOracle struct{ bad bool }

func (w *flakyOracle) Setup(tm.Thread) error { return nil }
func (w *flakyOracle) NewWorker(_ tm.Thread, _ int64, report conformance.Report) func() error {
	reports := 0
	return func() error {
		if w.bad {
			if reports < 2 {
				reports++
				report("torn read")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
}
func (w *flakyOracle) Check(tm.System) error {
	if w.bad {
		return errors.New("ledger off by one")
	}
	return nil
}

// TestSweepKeepsOracleVerdictOfEveryRepeat: the median is taken of the
// throughput, not of the oracle — one failing repeat in three must reach
// the reported point (the zero-violation gate reads nothing else).
func TestSweepKeepsOracleVerdictOfEveryRepeat(t *testing.T) {
	instances := 0
	var got []bench.Result
	flaky := bench.Workload{Name: "flaky-oracle", New: func() conformance.Instance {
		instances++
		return &flakyOracle{bad: instances == 2}
	}}
	_, err := bench.RunSweep(flaky, bench.FigureConfig{
		Algos:       bench.StandardAlgos()[:1],
		Threads:     []int{1},
		PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
		Repeat:      3,
		Progress:    func(r bench.Result) { got = append(got, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if instances != 3 || len(got) != 1 {
		t.Fatalf("%d instances, %d reported points, want 3 and 1", instances, len(got))
	}
	r := got[0]
	if r.Violations != 3 {
		t.Errorf("violations = %d, want 3 (2 in flight + the failed check of repeat 2)", r.Violations)
	}
	if !strings.Contains(r.CheckError, "ledger off by one") {
		t.Errorf("check error = %q, want repeat 2's", r.CheckError)
	}
}
