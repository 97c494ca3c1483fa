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
		Algos:    algos,
		Threads:  []int{2},
		Duration: 10 * time.Millisecond,
	}
}

func TestFigureDriversProduceAllColumns(t *testing.T) {
	cases := []struct {
		name string
		run  func(buf *bytes.Buffer) error
		want []string
	}{
		{"fig4", func(b *bytes.Buffer) error { return bench.Figure4(b, tinyFigure()) },
			[]string{"rbtree-4", "rbtree-10", "rbtree-40"}},
		{"fig5", func(b *bytes.Buffer) error { return bench.Figure5(b, tinyFigure()) },
			[]string{"vacation-low", "intruder", "genome"}},
		{"fig6", func(b *bytes.Buffer) error { return bench.Figure6(b, tinyFigure()) },
			[]string{"vacation-high", "ssca2", "yada"}},
		{"extra", func(b *bytes.Buffer) error { return bench.Extra(b, tinyFigure()) },
			[]string{"kmeans", "labyrinth"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf); err != nil {
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

func TestRHVariantsDistinctAndRunnable(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range bench.RHVariants() {
		if seen[a.Name] {
			t.Errorf("duplicate variant %q", a.Name)
		}
		seen[a.Name] = true
		res, err := bench.Run(bench.RunConfig{
			Workload: bench.RBTree(bench.RBTreeConfig{Size: 64, MutationRatio: 0.3})(),
			Algo:     a,
			Threads:  2,
			Duration: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Ops == 0 {
			t.Errorf("%s: no ops", a.Name)
		}
	}
	for _, want := range []string{"rh-norec", "rh-noprefix", "rh-nopostfix", "rh-noadapt", "hy-norec", "norec-lazy"} {
		if !seen[want] {
			t.Errorf("missing variant %q", want)
		}
	}
}
