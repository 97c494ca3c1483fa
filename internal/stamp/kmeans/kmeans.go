// Package kmeans reimplements the STAMP "kmeans" kernel: iterative K-means
// clustering where the per-point work is a small transaction updating the
// chosen cluster's accumulator (paper §3.6; the paper folds its results in
// with SSCA2 as "similar"). Points are private; only the K center
// accumulators are shared, so transactions are tiny with contention set by
// K.
package kmeans

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// Config sizes the workload.
type Config struct {
	// K is the number of clusters (contention is ~threads/K).
	K int
	// Dims is the point dimensionality.
	Dims int
	// Points is the private dataset size per app.
	Points int
}

// Default mirrors the STAMP low-contention configuration at simulator
// scale.
func Default() Config { return Config{K: 16, Dims: 4, Points: 2048} }

// Center accumulator layout: [count, sum0..sumD-1], padded to a line
// multiple so centers do not share lines.
func centerWords(dims int) int {
	w := 1 + dims
	return (w + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// App is one clustering instance.
type App struct {
	cfg     Config
	centers mem.Addr
	// points and seeds are immutable after New (STAMP's private input).
	points [][]uint64
	seeds  [][]uint64
	adds   atomic.Uint64
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.K <= 0 || cfg.Dims <= 0 || cfg.Points <= 0 {
		cfg = Default()
	}
	a := &App{cfg: cfg}
	rng := rand.New(rand.NewSource(0x4ea5))
	a.points = make([][]uint64, cfg.Points)
	for i := range a.points {
		p := make([]uint64, cfg.Dims)
		for d := range p {
			p[d] = uint64(rng.Intn(1024))
		}
		a.points[i] = p
	}
	a.seeds = make([][]uint64, cfg.K)
	for i := range a.seeds {
		a.seeds[i] = a.points[rng.Intn(cfg.Points)]
	}
	return a
}

// Setup allocates the center accumulators.
func (a *App) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		a.centers = tx.Alloc(a.cfg.K * centerWords(a.cfg.Dims))
		return nil
	})
}

func (a *App) center(i int) mem.Addr {
	return a.centers + mem.Addr(i*centerWords(a.cfg.Dims))
}

// worker assigns points on its own TM thread.
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

// op assigns one random point: the nearest seed center is computed outside
// the transaction (as STAMP does, against the stable previous-iteration
// centers), then a small transaction folds the point into that center's
// accumulator.
func (w *worker) op() error {
	p := w.app.points[w.rng.Intn(w.app.cfg.Points)]
	best, bestDist := 0, ^uint64(0)
	for k := 0; k < w.app.cfg.K; k++ {
		var d uint64
		for i := 0; i < w.app.cfg.Dims; i++ {
			diff := int64(p[i]) - int64(w.app.seeds[k][i])
			d += uint64(diff * diff)
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	err := w.th.Run(func(tx tm.Tx) error {
		c := w.app.center(best)
		tx.Store(c, tx.Load(c)+1)
		for i := 0; i < w.app.cfg.Dims; i++ {
			s := c + 1 + mem.Addr(i)
			tx.Store(s, tx.Load(s)+p[i])
		}
		return nil
	})
	if err == nil {
		w.app.adds.Add(1)
	}
	return err
}

// Assignments reports the number of points folded into centers.
func (a *App) Assignments() uint64 { return a.adds.Load() }

// Check validates conservation on a quiescent system: the center
// counts sum to the number of assignments, and each center's mean lies
// within the coordinate domain.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		var total uint64
		for k := 0; k < a.cfg.K; k++ {
			c := a.center(k)
			n := tx.Load(c)
			total += n
			for i := 0; i < a.cfg.Dims; i++ {
				sum := tx.Load(c + 1 + mem.Addr(i))
				if n == 0 {
					if sum != 0 {
						return fmt.Errorf("kmeans: center %d empty but sum[%d]=%d", k, i, sum)
					}
					continue
				}
				if mean := sum / n; mean >= 1024 {
					return fmt.Errorf("kmeans: center %d mean[%d]=%d out of domain", k, i, mean)
				}
			}
		}
		if total != a.adds.Load() {
			return fmt.Errorf("kmeans: counts sum to %d, %d assignments performed", total, a.adds.Load())
		}
		return nil
	})
}
