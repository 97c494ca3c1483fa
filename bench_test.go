// Benchmarks regenerating the paper's evaluation (one target per figure
// column, each with one sub-benchmark per TM algorithm), plus the ablation
// benchmarks for the design choices called out in DESIGN.md §5.
//
// Run everything:      go test -bench=. -benchmem
// One figure:          go test -bench=BenchmarkFigure4
// Custom metrics reported per sub-benchmark: hardware conflict and capacity
// aborts per committed operation, slow-path ratio, and (for RH NOrec)
// prefix/postfix success ratios — the analysis rows of Figures 4–6.
//
// Absolute ns/op is simulator-relative; compare algorithms within a
// sub-benchmark group, not against the paper's Haswell numbers (see
// EXPERIMENTS.md). The full thread sweeps behind EXPERIMENTS.md come from
// cmd/rhbench, which runs duration-based points; these testing.B targets
// exercise the identical workload/algorithm matrix in op-count form.
package rhnorec_test

import (
	"sync"
	"testing"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// benchThreads is the worker count for all benchmark targets: the paper's
// physical-core count.
const benchThreads = 8

// benchHTM mirrors the figure runs: default capacities plus the
// environmental-abort rate that drives realistic fallback ratios.
func benchHTM() htm.Config { return htm.Config{SpuriousAbortProb: 0.002} }

// runWorkload drives b.N operations of the workload across benchThreads
// workers on the given algorithm, reports the paper's analysis rows as
// custom metrics, and, off the clock, runs the workload's oracle: an
// in-flight violation or a failed Check fails the benchmark.
func runWorkload(b *testing.B, wl bench.Workload, algo bench.Algo) {
	b.Helper()
	m := mem.New(1 << 22)
	dev := htm.NewDevice(m, benchHTM())
	dev.SetActiveThreads(benchThreads)
	sys := algo.New(m, dev)
	w := wl.New()
	setup := sys.NewThread()
	if err := w.Setup(setup); err != nil {
		b.Fatal(err)
	}
	setup.Close()
	b.ResetTimer()
	var wg sync.WaitGroup
	var agg tm.Stats
	var mu sync.Mutex
	per := b.N / benchThreads
	for i := 0; i < benchThreads; i++ {
		n := per
		if i == 0 {
			n += b.N % benchThreads
		}
		wg.Add(1)
		go func(seed int64, n int) {
			defer wg.Done()
			th := sys.NewThread()
			defer th.Close()
			op := w.NewWorker(th, seed, func(msg string) { b.Errorf("%s: %s", wl.Name, msg) })
			for j := 0; j < n; j++ {
				if err := op(); err != nil {
					b.Error(err)
					return
				}
			}
			mu.Lock()
			agg.Add(th.Stats())
			mu.Unlock()
		}(int64(i)*2654435761+1, n)
	}
	wg.Wait()
	b.StopTimer()
	if err := w.Check(sys); err != nil {
		b.Errorf("%s check: %v", wl.Name, err)
	}
	b.ReportMetric(agg.ConflictAbortsPerOp(), "conflicts/op")
	b.ReportMetric(agg.CapacityAbortsPerOp(), "capacity/op")
	b.ReportMetric(agg.SlowPathRatio(), "slowpath-ratio")
	if agg.PrefixAttempts > 0 || agg.PostfixAttempts > 0 {
		b.ReportMetric(agg.PrefixSuccessRatio(), "prefix-succ")
		b.ReportMetric(agg.PostfixSuccessRatio(), "postfix-succ")
	}
}

// benchAllAlgos runs the workload under every algorithm the paper compares.
func benchAllAlgos(b *testing.B, wl bench.Workload) {
	b.Helper()
	for _, algo := range bench.StandardAlgos() {
		b.Run(algo.Name, func(b *testing.B) {
			runWorkload(b, wl, algo)
		})
	}
}

// Figure 4: the 10,000-node red-black tree at the paper's three mutation
// ratios (§3.5).

func BenchmarkFigure4_RBTree4(b *testing.B) {
	benchAllAlgos(b, bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.04}))
}

func BenchmarkFigure4_RBTree10(b *testing.B) {
	benchAllAlgos(b, bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.10}))
}

func BenchmarkFigure4_RBTree40(b *testing.B) {
	benchAllAlgos(b, bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.40}))
}

// Figure 5: Vacation-Low, Intruder, Genome (§3.6).

func BenchmarkFigure5_VacationLow(b *testing.B) { benchAllAlgos(b, bench.VacationLow()) }

func BenchmarkFigure5_Intruder(b *testing.B) { benchAllAlgos(b, bench.Intruder()) }

func BenchmarkFigure5_Genome(b *testing.B) { benchAllAlgos(b, bench.Genome()) }

// Figure 6: Vacation-High, SSCA2, Yada (§3.6).

func BenchmarkFigure6_VacationHigh(b *testing.B) { benchAllAlgos(b, bench.VacationHigh()) }

func BenchmarkFigure6_SSCA2(b *testing.B) { benchAllAlgos(b, bench.SSCA2()) }

func BenchmarkFigure6_Yada(b *testing.B) { benchAllAlgos(b, bench.Yada()) }

// The workloads the paper folds into the SSCA2 discussion (§3.6).

func BenchmarkExtra_Kmeans(b *testing.B) { benchAllAlgos(b, bench.Kmeans()) }

func BenchmarkExtra_Labyrinth(b *testing.B) { benchAllAlgos(b, bench.Labyrinth()) }

// Ablations (DESIGN.md §5). All run the rbtree-10 workload, where both
// small hardware transactions matter.

var ablationWorkload = bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.10})

// algoNamed resolves an algorithm by its rhbench name: a policy variant
// (rh-noprefix, rh-nopostfix, hy-norec) is an algorithm of its own.
func algoNamed(b *testing.B, name string) bench.Algo {
	a, ok := bench.AlgoByName(name)
	if !ok {
		b.Fatalf("%s missing", name)
	}
	return a
}

func rhAlgo(b *testing.B) bench.Algo { return algoNamed(b, "rh-norec") }

// BenchmarkAblationPrefix isolates the HTM prefix's contribution.
func BenchmarkAblationPrefix(b *testing.B) {
	b.Run("prefix-on", func(b *testing.B) {
		runWorkload(b, ablationWorkload, rhAlgo(b))
	})
	b.Run("prefix-off", func(b *testing.B) {
		runWorkload(b, ablationWorkload, algoNamed(b, "rh-noprefix"))
	})
}

// BenchmarkAblationPostfix isolates the HTM postfix (the clock-at-commit
// enabler); with it off, RH NOrec degenerates towards Hybrid NOrec.
func BenchmarkAblationPostfix(b *testing.B) {
	b.Run("postfix-on", func(b *testing.B) {
		runWorkload(b, ablationWorkload, rhAlgo(b))
	})
	b.Run("postfix-off", func(b *testing.B) {
		runWorkload(b, ablationWorkload, algoNamed(b, "rh-nopostfix"))
	})
	b.Run("both-off", func(b *testing.B) {
		runWorkload(b, ablationWorkload, algoNamed(b, "hy-norec"))
	})
}

// BenchmarkAblationEagerVsLazyNOrec checks §3.1's claim that the eager
// NOrec design beats lazy at these concurrency levels.
func BenchmarkAblationEagerVsLazyNOrec(b *testing.B) {
	eager, lazy := algoNamed(b, "norec"), algoNamed(b, "norec-lazy")
	b.Run("eager", func(b *testing.B) { runWorkload(b, ablationWorkload, eager) })
	b.Run("lazy", func(b *testing.B) { runWorkload(b, ablationWorkload, lazy) })
}

// BenchmarkAblationEagerVsLazyHyTM checks §3.1's claim that the eager
// hybrid design outperforms the lazy one at these concurrency levels.
func BenchmarkAblationEagerVsLazyHyTM(b *testing.B) {
	eager, lazy := algoNamed(b, "hy-norec"), algoNamed(b, "hy-norec-lazy")
	b.Run("eager", func(b *testing.B) { runWorkload(b, ablationWorkload, eager) })
	b.Run("lazy", func(b *testing.B) { runWorkload(b, ablationWorkload, lazy) })
}

// BenchmarkStructures compares ordered-map implementations under RH NOrec
// at the same operation mix: different footprints per operation mean
// different fast-path capacity and conflict profiles.
func BenchmarkStructures(b *testing.B) {
	cfg := bench.RBTreeConfig{Size: 2048, MutationRatio: 0.20}
	for _, w := range []struct {
		name string
		wl   bench.Workload
	}{
		{"rbtree", bench.RBTree(cfg)},
		{"skiplist", bench.SkipListWorkload(cfg)},
		{"sortedlist", bench.SortedListWorkload(bench.RBTreeConfig{Size: 128, MutationRatio: 0.20})},
	} {
		b.Run(w.name, func(b *testing.B) { runWorkload(b, w.wl, rhAlgo(b)) })
	}
}

// BenchmarkBackgroundPhasedTM contrasts the hybrids with the PhasedTM
// approach of §1.1: with any steady trickle of fallbacks, every transaction
// pays for the software phases.
func BenchmarkBackgroundPhasedTM(b *testing.B) {
	phased := algoNamed(b, "phased-tm")
	b.Run("rh-norec", func(b *testing.B) { runWorkload(b, ablationWorkload, rhAlgo(b)) })
	b.Run("phased-tm", func(b *testing.B) { runWorkload(b, ablationWorkload, phased) })
}

// BenchmarkPredecessorRHTL2 contrasts RH NOrec with its predecessor RH-TL2
// (paper §1.2): the predecessor pays write instrumentation on the fast path
// and carries reads+writes in its commit transaction.
func BenchmarkPredecessorRHTL2(b *testing.B) {
	rhtl2Algo := algoNamed(b, "rh-tl2")
	for _, w := range []struct {
		name string
		wl   bench.Workload
	}{
		{"rbtree10", bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.10})},
		{"rbtree40", bench.RBTree(bench.RBTreeConfig{Size: 10000, MutationRatio: 0.40})},
	} {
		b.Run(w.name+"/rh-norec", func(b *testing.B) { runWorkload(b, w.wl, rhAlgo(b)) })
		b.Run(w.name+"/rh-tl2", func(b *testing.B) { runWorkload(b, w.wl, rhtl2Algo) })
	}
}

// BenchmarkHTMDevice measures the simulated hardware primitives themselves
// (useful when recalibrating the cost model).
func BenchmarkHTMDevice(b *testing.B) {
	m := mem.New(1 << 16)
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(1)
	tc := m.NewThreadCache()
	base := tc.Alloc(64 * mem.LineWords)
	tx := dev.NewTxn()
	b.Run("read-txn-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx.Begin()
			for k := 0; k < 32; k++ {
				_ = tx.Load(base + mem.Addr(k*mem.LineWords))
			}
			tx.Commit()
		}
	})
	b.Run("write-txn-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx.Begin()
			for k := 0; k < 8; k++ {
				tx.Store(base+mem.Addr(k*mem.LineWords), uint64(i))
			}
			tx.Commit()
		}
	})
	b.Run("plain-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.LoadPlain(base)
		}
	})
	b.Run("plain-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.StorePlain(base, uint64(i))
		}
	})
}
