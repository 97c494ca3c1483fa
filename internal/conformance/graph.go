package conformance

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// GraphConfig parameterizes the graph fan-out workload: a static directed
// graph where a "post" on node u increments u's post counter and pushes
// into every out-neighbor's feed counter in one transaction. Node 0 is in
// almost every adjacency list, so its feed line is a deliberate hub
// hotspot. The invariant — every feed equals the sum of its in-neighbors'
// posts — is checked by read-only auditors in-transaction and over a
// snapshot at the end.
type GraphConfig struct {
	// Nodes is the vertex count (one cache line each).
	Nodes int
}

func (c GraphConfig) withDefaults() GraphConfig {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	return c
}

// Node line layout: word 0 posts, 1 feed.
type graphInstance struct {
	cfg  GraphConfig
	base mem.Addr
	out  [][]int // static adjacency, built once at setup
	in   [][]int // inverse adjacency, for the audit
}

func (s *graphInstance) node(v int) mem.Addr {
	return s.base + mem.Addr(v*mem.LineWords)
}

func (s *graphInstance) Setup(th tm.Thread) error {
	cfg := s.cfg.withDefaults()
	s.cfg = cfg
	n := cfg.Nodes
	s.out = make([][]int, n)
	s.in = make([][]int, n)
	for u := 0; u < n; u++ {
		// Hub + ring + stride, deduplicated, self-loops dropped: node 0
		// collects an in-edge from nearly everyone.
		for _, v := range []int{0, (u + 1) % n, (u*5 + 2) % n} {
			if v == u {
				continue
			}
			dup := false
			for _, w := range s.out[u] {
				if w == v {
					dup = true
					break
				}
			}
			if !dup {
				s.out[u] = append(s.out[u], v)
			}
		}
		for _, v := range s.out[u] {
			s.in[v] = append(s.in[v], u)
		}
	}
	return th.Run(func(tx tm.Tx) error {
		s.base = tx.Alloc(n * mem.LineWords)
		return nil // zero state: no posts, empty feeds
	})
}

func (s *graphInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return s.op(th, rng, report) }
}

// op draws one operation: 1/4 a read-only feed audit on a random node,
// 3/4 a post fan-out from a random node.
func (s *graphInstance) op(th tm.Thread, rng *rand.Rand, report Report) error {
	if rng.Intn(4) == 0 {
		v := rng.Intn(s.cfg.Nodes)
		return th.RunReadOnly(func(tx tm.Tx) error {
			var want uint64
			for _, u := range s.in[v] {
				want += tx.Load(s.node(u))
			}
			if got := tx.Load(s.node(v) + 1); got != want {
				report(fmt.Sprintf("graph audit: node %d feed %d, in-neighbor posts total %d", v, got, want))
			}
			return nil
		})
	}
	u := rng.Intn(s.cfg.Nodes)
	return th.Run(func(tx tm.Tx) error {
		a := s.node(u)
		tx.Store(a, tx.Load(a)+1)
		for _, v := range s.out[u] {
			f := s.node(v) + 1
			tx.Store(f, tx.Load(f)+1)
		}
		return nil
	})
}

func (s *graphInstance) Check(sys tm.System) error {
	cfg := s.cfg
	snap := make([]uint64, cfg.Nodes*mem.LineWords)
	sys.Memory().Snapshot(s.base, snap)
	for v := 0; v < cfg.Nodes; v++ {
		var want uint64
		for _, u := range s.in[v] {
			want += snap[u*mem.LineWords]
		}
		if got := snap[v*mem.LineWords+1]; got != want {
			return fmt.Errorf("graph: node %d feed %d, in-neighbor posts total %d", v, got, want)
		}
	}
	return nil
}

// graphScenario models a social fan-out-on-write path: every post is a
// multi-line transaction whose write set converges on the hub's feed line.
var graphScenario = Scenario{
	Name:           "graph",
	ExploreWorkers: 3,
	ExploreOps:     3,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &graphInstance{cfg: GraphConfig{Nodes: 4}}
		case ScaleSoak:
			return &graphInstance{cfg: GraphConfig{Nodes: 64}}
		default:
			return &graphInstance{cfg: GraphConfig{}}
		}
	},
}
