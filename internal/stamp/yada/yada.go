// Package yada reimplements the STAMP "yada" kernel (Yet Another Delaunay
// Application): mesh refinement by cavity retriangulation (paper §3.6).
// A shared work stack holds "bad" region ids; each transaction pops one,
// reads its neighbourhood (the cavity), improves the region and its
// neighbours, and may push neighbours whose quality degraded back onto the
// stack. Transactions are moderate-to-large with moderate contention — the
// profile on which the paper shows all hybrid schemes clustering together.
package yada

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// Region record layout: [quality, inQueue, neighbor0..neighborDeg-1],
// padded to a whole line.
const (
	regQuality = iota
	regInQueue
	regNbrBase
)

// Config sizes the workload.
type Config struct {
	// Regions is the mesh size.
	Regions int
	// Degree is the neighbour count per region (cavity size).
	Degree int
	// GoodQuality is the threshold at which a region stops being "bad".
	GoodQuality uint64
}

// Default matches the paper's moderate profile at simulator scale.
func Default() Config { return Config{Regions: 1024, Degree: 6, GoodQuality: 100} }

func (c Config) regionWords() int {
	w := regNbrBase + c.Degree
	return (w + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// App is one mesh-refinement instance.
type App struct {
	cfg     Config
	regions mem.Addr
	work    txds.Stack
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.Regions <= 0 || cfg.Degree <= 0 {
		cfg = Default()
	}
	return &App{cfg: cfg}
}

// Setup builds the mesh (ring-with-chords neighbourhood) and seeds the work
// stack with every region (all start "bad" at quality 0..GoodQuality/2).
func (a *App) Setup(th tm.Thread) error {
	rng := rand.New(rand.NewSource(0xda1a))
	if err := th.Run(func(tx tm.Tx) error {
		a.regions = tx.Alloc(a.cfg.Regions * a.cfg.regionWords())
		a.work = txds.NewStack(tx)
		return nil
	}); err != nil {
		return err
	}
	const batch = 64
	for start := 0; start < a.cfg.Regions; start += batch {
		end := start + batch
		if end > a.cfg.Regions {
			end = a.cfg.Regions
		}
		if err := th.Run(func(tx tm.Tx) error {
			for i := start; i < end; i++ {
				r := a.region(i)
				tx.Store(r+regQuality, uint64(rng.Intn(int(a.cfg.GoodQuality/2)+1)))
				for d := 0; d < a.cfg.Degree; d++ {
					var nbr int
					if d < 2 {
						// Ring edges keep the mesh connected.
						nbr = (i + 1 - 2*(d%2) + a.cfg.Regions) % a.cfg.Regions
					} else {
						nbr = rng.Intn(a.cfg.Regions)
					}
					tx.Store(r+regNbrBase+mem.Addr(d), uint64(nbr)+1)
				}
				a.work.Push(tx, uint64(i))
				tx.Store(r+regInQueue, 1)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) region(i int) mem.Addr {
	return a.regions + mem.Addr(i*a.cfg.regionWords())
}

// worker refines the mesh on its own TM thread.
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

// op refines one bad region: pop it, read its cavity, raise its quality,
// take a small toll on two random neighbours, and re-queue any region that
// fell below the threshold. When the stack is empty the worker damages a
// random region instead (keeping the workload endless for duration-based
// runs).
func (w *worker) op() error {
	damage := uint64(w.rng.Intn(3))
	victim := w.rng.Intn(w.app.cfg.Regions)
	return w.th.Run(func(tx tm.Tx) error {
		idWord, ok := w.app.work.Pop(tx)
		if !ok {
			// Refinement ran dry: introduce new badness.
			r := w.app.region(victim)
			tx.Store(r+regQuality, damage)
			if tx.Load(r+regInQueue) == 0 {
				w.app.work.Push(tx, uint64(victim))
				tx.Store(r+regInQueue, 1)
			}
			return nil
		}
		id := int(idWord)
		r := w.app.region(id)
		tx.Store(r+regInQueue, 0)
		q := tx.Load(r + regQuality)
		if q >= w.app.cfg.GoodQuality {
			return nil // already refined by a neighbour's cascade
		}
		// Read the whole cavity (region + all neighbours).
		cavity := make([]mem.Addr, w.app.cfg.Degree)
		var worst uint64 = ^uint64(0)
		for d := 0; d < w.app.cfg.Degree; d++ {
			nbr := tx.Load(r + regNbrBase + mem.Addr(d))
			cavity[d] = w.app.region(int(nbr - 1))
			if nq := tx.Load(cavity[d] + regQuality); nq < worst {
				worst = nq
			}
		}
		// Retriangulate: this region becomes good; two neighbours pay a
		// toll and may become bad.
		tx.Store(r+regQuality, w.app.cfg.GoodQuality+q%16)
		for k := 0; k < 2; k++ {
			n := cavity[(id+k)%w.app.cfg.Degree]
			nq := tx.Load(n + regQuality)
			if nq < damage {
				nq = 0
			} else {
				nq -= damage
			}
			tx.Store(n+regQuality, nq)
			if nq < w.app.cfg.GoodQuality && tx.Load(n+regInQueue) == 0 {
				// Recover the neighbour's id from its address.
				nid := int(n-w.app.regions) / w.app.cfg.regionWords()
				w.app.work.Push(tx, uint64(nid))
				tx.Store(n+regInQueue, 1)
			}
		}
		return nil
	})
}

// Check validates on a quiescent system: the inQueue flags agree
// with stack membership and every stack entry is a valid region id.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		queued := make(map[uint64]int)
		bad := false
		a.work.ForEach(tx, func(v uint64) {
			if v >= uint64(a.cfg.Regions) {
				bad = true
			}
			queued[v]++
		})
		if bad {
			return fmt.Errorf("yada: work stack contains out-of-range region id")
		}
		for id, n := range queued {
			if n != 1 {
				return fmt.Errorf("yada: region %d queued %d times", id, n)
			}
			if tx.Load(a.region(int(id))+regInQueue) != 1 {
				return fmt.Errorf("yada: region %d queued but flag clear", id)
			}
		}
		for i := 0; i < a.cfg.Regions; i++ {
			if tx.Load(a.region(i)+regInQueue) == 1 {
				if _, ok := queued[uint64(i)]; !ok {
					return fmt.Errorf("yada: region %d flagged but not queued", i)
				}
			}
		}
		return nil
	})
}

// QueueDepth reports the current work-stack depth.
func (a *App) QueueDepth(th tm.Thread) (uint64, error) {
	var n uint64
	err := th.RunReadOnly(func(tx tm.Tx) error {
		n = a.work.Size(tx)
		return nil
	})
	return n, err
}
