// Package bayes reimplements the STAMP "bayes" kernel: structure learning
// of a Bayesian network by hill climbing. Workers repeatedly propose adding,
// removing or reversing an edge of a shared directed acyclic graph; a
// transaction scores the proposal against the adjacency state, applies it
// if it improves the local score, and keeps the graph acyclic.
//
// The paper OMITS bayes from its evaluation "due to its inconsistent
// behavior" (§3.6, as did [21]), and no figure reproduction depends on it.
// It stays as an overflowing kernel: its transactions outgrow the hardware
// read capacity and chain read segments behind the prefix, and it is one of
// the kernels on which RH NOrec's segment death rule was measured
// (EXPERIMENTS.md "Read segments": RH/HY 0.98 → 0.97 at 16 threads).
package bayes

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Node record layout: [score, parentCount, parent0..parent{maxParents-1}],
// padded to a line multiple.
const (
	nScore     = 0
	nParents   = 1
	nFirst     = 2
	maxParents = 4
)

// Config sizes the workload.
type Config struct {
	// Vars is the number of network variables (nodes).
	Vars int
}

// Default matches a small learning problem.
func Default() Config { return Config{Vars: 128} }

func nodeWords() int {
	w := nFirst + maxParents
	return (w + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// App is one structure-learning instance.
type App struct {
	cfg   Config
	nodes mem.Addr
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.Vars <= 2 {
		cfg = Default()
	}
	return &App{cfg: cfg}
}

// Setup allocates the node table (no edges; scores start at zero).
func (a *App) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		a.nodes = tx.Alloc(a.cfg.Vars * nodeWords())
		return nil
	})
}

func (a *App) node(i int) mem.Addr { return a.nodes + mem.Addr(i*nodeWords()) }

// worker proposes structure changes on its own TM thread.
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

// hasParent reports whether p is a parent of child (transactional read).
func (a *App) hasParent(tx tm.Tx, child, p int) bool {
	n := a.node(child)
	cnt := tx.Load(n + nParents)
	for i := uint64(0); i < cnt; i++ {
		if tx.Load(n+nFirst+mem.Addr(i)) == uint64(p)+1 {
			return true
		}
	}
	return false
}

// reachable reports whether `to` is reachable from `from` along parent
// edges reversed (i.e. along child→parent pointers), bounded by the node
// count — the acyclicity check a real learner performs on each proposal.
func (a *App) reachable(tx tm.Tx, from, to int) bool {
	// Iterative DFS over parent pointers.
	stack := []int{from}
	seen := make(map[int]bool, 16)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == to {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		n := a.node(x)
		cnt := tx.Load(n + nParents)
		for i := uint64(0); i < cnt; i++ {
			stack = append(stack, int(tx.Load(n+nFirst+mem.Addr(i))-1))
		}
	}
	return false
}

// op proposes one structure change: add a parent edge p→c if it keeps the
// graph acyclic and c has capacity (score +1), or remove a random parent
// (score −1 with small probability, modelling the learner escaping local
// optima).
func (w *worker) op() error {
	c := w.rng.Intn(w.app.cfg.Vars)
	p := w.rng.Intn(w.app.cfg.Vars)
	remove := w.rng.Intn(8) == 0
	return w.th.Run(func(tx tm.Tx) error {
		n := w.app.node(c)
		cnt := tx.Load(n + nParents)
		if remove {
			if cnt == 0 {
				return nil
			}
			// Remove the last parent.
			tx.Store(n+nFirst+mem.Addr(cnt-1), 0)
			tx.Store(n+nParents, cnt-1)
			tx.Store(n+nScore, tx.Load(n+nScore)-1)
			return nil
		}
		if p == c || cnt >= maxParents || w.app.hasParent(tx, c, p) {
			return nil
		}
		// Adding p as a parent of c creates the edge p→c; a cycle exists
		// iff c is already an ancestor of p (reachable via parent links).
		if w.app.reachable(tx, p, c) {
			return nil
		}
		tx.Store(n+nFirst+mem.Addr(cnt), uint64(p)+1)
		tx.Store(n+nParents, cnt+1)
		tx.Store(n+nScore, tx.Load(n+nScore)+1)
		return nil
	})
}

// Check validates on a quiescent system: parent counts in bounds,
// parent slots consistent with counts, no self-loops or duplicate parents,
// score equals the net edge count, and the graph is acyclic.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		for c := 0; c < a.cfg.Vars; c++ {
			n := a.node(c)
			cnt := tx.Load(n + nParents)
			if cnt > maxParents {
				return fmt.Errorf("bayes: node %d has %d parents", c, cnt)
			}
			if score := tx.Load(n + nScore); score != cnt {
				return fmt.Errorf("bayes: node %d score %d != parent count %d", c, score, cnt)
			}
			seen := map[uint64]bool{}
			for i := uint64(0); i < maxParents; i++ {
				v := tx.Load(n + nFirst + mem.Addr(i))
				if i < cnt {
					if v == 0 {
						return fmt.Errorf("bayes: node %d slot %d empty below count", c, i)
					}
					if v == uint64(c)+1 {
						return fmt.Errorf("bayes: node %d has a self-loop", c)
					}
					if seen[v] {
						return fmt.Errorf("bayes: node %d has duplicate parent %d", c, v-1)
					}
					seen[v] = true
				} else if v != 0 {
					return fmt.Errorf("bayes: node %d slot %d populated above count", c, i)
				}
			}
		}
		// Acyclicity via DFS coloring over parent links.
		const (
			white = 0
			gray  = 1
			black = 2
		)
		color := make([]int, a.cfg.Vars)
		var visit func(x int) error
		visit = func(x int) error {
			color[x] = gray
			n := a.node(x)
			cnt := tx.Load(n + nParents)
			for i := uint64(0); i < cnt; i++ {
				p := int(tx.Load(n+nFirst+mem.Addr(i)) - 1)
				switch color[p] {
				case gray:
					return fmt.Errorf("bayes: cycle through nodes %d and %d", x, p)
				case white:
					if err := visit(p); err != nil {
						return err
					}
				}
			}
			color[x] = black
			return nil
		}
		for c := 0; c < a.cfg.Vars; c++ {
			if color[c] == white {
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
