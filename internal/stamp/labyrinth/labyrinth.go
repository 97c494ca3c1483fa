// Package labyrinth reimplements the STAMP "labyrinth" kernel: concurrent
// maze routing (paper §3.6; the paper folds its results in with SSCA2 as
// "similar"). Each transaction routes one path across a shared grid,
// reading every cell along several candidate routes and claiming one —
// STAMP's router snapshots the whole grid, making this the suite's
// capacity-abort generator: transactions are far too large for hardware and
// live almost entirely on the software paths.
package labyrinth

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Config sizes the workload.
type Config struct {
	// Width and Height size the routing grid.
	Width, Height int
	// SnapshotGrid mimics STAMP's whole-grid private copy at transaction
	// start (reads Width×Height cells per transaction). Disabling it reads
	// only the candidate route cells.
	SnapshotGrid bool
}

// Default matches the paper's capacity-heavy profile.
func Default() Config { return Config{Width: 48, Height: 48, SnapshotGrid: true} }

// App is one routing-grid instance.
type App struct {
	cfg    Config
	grid   mem.Addr // Width*Height cells; 0 = free, else path id
	nextID atomic.Uint64
	routed atomic.Uint64
	failed atomic.Uint64
	// lengths records committed path lengths by id for the integrity check.
	lengths sync.Map
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.Width <= 2 || cfg.Height <= 2 {
		cfg = Default()
	}
	return &App{cfg: cfg}
}

// Setup allocates the grid.
func (a *App) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		a.grid = tx.Alloc(a.cfg.Width * a.cfg.Height)
		return nil
	})
}

func (a *App) cell(x, y int) mem.Addr {
	return a.grid + mem.Addr(y*a.cfg.Width+x)
}

// worker routes paths on its own TM thread.
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

// lPath returns the L-shaped route from (x0,y0) to (x1,y1), x-leg first or
// y-leg first.
func lPath(x0, y0, x1, y1 int, yFirst bool) [][2]int {
	var path [][2]int
	step := func(v0, v1 int) int {
		if v1 > v0 {
			return 1
		}
		return -1
	}
	x, y := x0, y0
	path = append(path, [2]int{x, y})
	if yFirst {
		for y != y1 {
			y += step(y0, y1)
			path = append(path, [2]int{x, y})
		}
		for x != x1 {
			x += step(x0, x1)
			path = append(path, [2]int{x, y})
		}
	} else {
		for x != x1 {
			x += step(x0, x1)
			path = append(path, [2]int{x, y})
		}
		for y != y1 {
			y += step(y0, y1)
			path = append(path, [2]int{x, y})
		}
	}
	return path
}

// op routes one path: snapshot the grid (if configured), try both L-shaped
// candidate routes, and claim the first fully-free one. A blocked pair
// still commits (as a read-only transaction) and counts as a routing
// failure, like STAMP's router giving up on a work item.
func (w *worker) op() error {
	x0, y0 := w.rng.Intn(w.app.cfg.Width), w.rng.Intn(w.app.cfg.Height)
	x1, y1 := w.rng.Intn(w.app.cfg.Width), w.rng.Intn(w.app.cfg.Height)
	if x0 == x1 && y0 == y1 {
		x1 = (x1 + 1) % w.app.cfg.Width
	}
	id := w.app.nextID.Add(1)
	routed := false
	var length int
	err := w.th.Run(func(tx tm.Tx) error {
		routed, length = false, 0
		if w.app.cfg.SnapshotGrid {
			// STAMP's grid copy: read every cell.
			for i := 0; i < w.app.cfg.Width*w.app.cfg.Height; i++ {
				_ = tx.Load(w.app.grid + mem.Addr(i))
			}
		}
		for _, yFirst := range []bool{false, true} {
			path := lPath(x0, y0, x1, y1, yFirst)
			free := true
			for _, c := range path {
				if tx.Load(w.app.cell(c[0], c[1])) != 0 {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			for _, c := range path {
				tx.Store(w.app.cell(c[0], c[1]), id)
			}
			routed, length = true, len(path)
			return nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	if routed {
		w.app.routed.Add(1)
		w.app.lengths.Store(id, length)
	} else {
		w.app.failed.Add(1)
	}
	return nil
}

// Routed reports how many paths were committed.
func (a *App) Routed() uint64 { return a.routed.Load() }

// Failed reports how many routing attempts found no free path.
func (a *App) Failed() uint64 { return a.failed.Load() }

// Check validates on a quiescent system: every committed path's
// cells carry exactly its id, cell-count per id matches the recorded
// length, and no cell carries an unknown id — i.e. committed paths are
// disjoint and complete.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		counts := make(map[uint64]int)
		for i := 0; i < a.cfg.Width*a.cfg.Height; i++ {
			if id := tx.Load(a.grid + mem.Addr(i)); id != 0 {
				counts[id]++
			}
		}
		for id, n := range counts {
			v, ok := a.lengths.Load(id)
			if !ok {
				return fmt.Errorf("labyrinth: grid contains cells of unknown path %d", id)
			}
			if v.(int) != n {
				return fmt.Errorf("labyrinth: path %d has %d cells, recorded length %d", id, n, v.(int))
			}
		}
		var recorded int
		a.lengths.Range(func(any, any) bool { recorded++; return true })
		if recorded != len(counts) {
			return fmt.Errorf("labyrinth: %d paths recorded, %d present in grid", recorded, len(counts))
		}
		return nil
	})
}
