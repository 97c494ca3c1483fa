// Package ssca2 reimplements the STAMP "ssca2" kernel (Scalable Synthetic
// Compact Applications 2, kernel 1): concurrent construction of a directed
// multigraph's adjacency structure (paper §3.6). Each transaction appends
// one edge to a random node's adjacency array — small, uncontended
// read-modify-write transactions over a large node set. The paper reports
// all HTM-based schemes behaving alike here (hardly any fallbacks), which
// is the expected signature for this profile.
package ssca2

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Node record layout: [degree, edge0..edge{cap-1}], padded to two lines.
const (
	edgeCap   = 8
	nodeWords = 2 * mem.LineWords
)

// Config sizes the workload.
type Config struct {
	// Nodes is the graph's node count; contention scales inversely.
	Nodes int
}

// Default matches the paper's uncontended profile.
func Default() Config { return Config{Nodes: 4096} }

// App is one graph-construction instance.
type App struct {
	cfg   Config
	nodes mem.Addr // contiguous array of node records
	edges atomic.Uint64
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.Nodes <= 0 {
		cfg = Default()
	}
	return &App{cfg: cfg}
}

// Setup allocates the node array.
func (a *App) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		a.nodes = tx.Alloc(a.cfg.Nodes * nodeWords)
		return nil
	})
}

func (a *App) node(i int) mem.Addr { return a.nodes + mem.Addr(i*nodeWords) }

// worker adds edges on its own TM thread.
type worker struct {
	app *App
	th  tm.Thread
	rng *rand.Rand
}

// NewWorker returns a worker bound to th; each call of the closure is one
// op. The kernel reports nothing in flight: its oracle is Check.
func (a *App) NewWorker(th tm.Thread, seed int64, _ conformance.Report) func() error {
	return (&worker{app: a, th: th, rng: rand.New(rand.NewSource(seed))}).op
}

// op appends one random edge u→v; when u's adjacency array is full it
// overwrites a random slot (keeping the workload endless, as the harness
// requires).
func (w *worker) op() error {
	u := w.rng.Intn(w.app.cfg.Nodes)
	v := uint64(w.rng.Intn(w.app.cfg.Nodes))
	slot := w.rng.Intn(edgeCap)
	err := w.th.Run(func(tx tm.Tx) error {
		n := w.app.node(u)
		deg := tx.Load(n)
		if deg < edgeCap {
			tx.Store(n+1+mem.Addr(deg), v+1)
			tx.Store(n, deg+1)
		} else {
			tx.Store(n+1+mem.Addr(slot), v+1)
		}
		return nil
	})
	if err == nil {
		w.app.edges.Add(1)
	}
	return err
}

// Edges reports the number of edge insertions performed.
func (a *App) Edges() uint64 { return a.edges.Load() }

// Check validates on a quiescent system: every degree is within
// bounds, exactly the first degree slots are populated, and every edge
// target is a valid node.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		for i := 0; i < a.cfg.Nodes; i++ {
			n := a.node(i)
			deg := tx.Load(n)
			if deg > edgeCap {
				return fmt.Errorf("ssca2: node %d degree %d > cap %d", i, deg, edgeCap)
			}
			for s := 0; s < edgeCap; s++ {
				e := tx.Load(n + 1 + mem.Addr(s))
				if uint64(s) < deg {
					if e == 0 {
						return fmt.Errorf("ssca2: node %d slot %d empty below degree %d", i, s, deg)
					}
					if e > uint64(a.cfg.Nodes) {
						return fmt.Errorf("ssca2: node %d edge target %d out of range", i, e-1)
					}
				} else if e != 0 {
					return fmt.Errorf("ssca2: node %d slot %d populated above degree %d", i, s, deg)
				}
			}
		}
		return nil
	})
}
