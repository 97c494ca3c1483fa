package bench_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/bench"
)

// tinyFigure keeps figure smoke tests fast: two algorithms, one thread
// count, short points.
func tinyFigure() bench.FigureConfig {
	algos := []bench.Algo{}
	for _, name := range []string{"hy-norec", "rh-norec"} {
		a, _ := bench.AlgoByName(name)
		algos = append(algos, a)
	}
	return bench.FigureConfig{
		Algos:       algos,
		Threads:     []int{2},
		PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
	}
}

func TestFigureDriversProduceAllColumns(t *testing.T) {
	cases := []struct {
		name string
		want []string
	}{
		{"fig4", []string{"rbtree-4", "rbtree-10", "rbtree-40"}},
		{"fig5", []string{"vacation-low", "intruder", "genome"}},
		{"fig6", []string{"vacation-high", "ssca2", "yada"}},
		{"extra", []string{"kmeans", "labyrinth"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, ok := bench.ExperimentByName(c.name)
			if !ok {
				t.Fatalf("no experiment %q", c.name)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, tinyFigure()); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range c.want {
				if !strings.Contains(out, "workload: "+w) {
					t.Errorf("%s output missing workload %q", c.name, w)
				}
			}
			if !strings.Contains(out, "analysis: rh-norec") {
				t.Errorf("%s output missing rh-norec analysis rows", c.name)
			}
		})
	}
}

// TestEveryExperimentWorkloadIsOracleClean runs each workload of every
// experiment (once, where experiments share one) for a short point under
// the serial oracle and RH NOrec: every point is a conformance pass, and on
// working drivers each reads zero violations and a clean check.
func TestEveryExperimentWorkloadIsOracleClean(t *testing.T) {
	var algos []bench.Algo
	for _, name := range []string{"serial", "rh-norec"} {
		a, ok := bench.AlgoByName(name)
		if !ok {
			t.Fatalf("no algorithm %q", name)
		}
		algos = append(algos, a)
	}
	seen := map[string]bool{}
	for _, e := range bench.Experiments() {
		if len(e.Workloads) == 0 {
			t.Errorf("experiment %s has no workloads", e.Name)
		}
		for _, wl := range e.Workloads {
			if seen[wl.Name] {
				continue
			}
			seen[wl.Name] = true
			for _, algo := range algos {
				t.Run(e.Name+"/"+wl.Name+"/"+algo.Name, func(t *testing.T) {
					res, err := bench.Run(bench.RunConfig{
						Workload:    wl,
						Algo:        algo,
						Threads:     2,
						PointConfig: bench.PointConfig{Duration: 5 * time.Millisecond},
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Violations != 0 || res.CheckError != "" {
						t.Errorf("%d violations, check error %q", res.Violations, res.CheckError)
					}
				})
			}
		}
	}
}

func TestRHVariantsDistinctAndRunnable(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range bench.RHVariants() {
		if seen[a.Name] {
			t.Errorf("duplicate variant %q", a.Name)
		}
		seen[a.Name] = true
		res, err := bench.Run(bench.RunConfig{
			Workload:    bench.RBTree(bench.RBTreeConfig{Size: 64, MutationRatio: 0.3}),
			Algo:        a,
			Threads:     2,
			PointConfig: bench.PointConfig{Duration: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Ops == 0 {
			t.Errorf("%s: no ops", a.Name)
		}
	}
	for _, want := range []string{"rh-norec", "rh-noprefix", "rh-nopostfix", "hy-norec", "norec-lazy"} {
		if !seen[want] {
			t.Errorf("missing variant %q", want)
		}
	}
}
