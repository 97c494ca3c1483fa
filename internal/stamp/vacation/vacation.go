// Package vacation reimplements the STAMP "vacation" application kernel: an
// online transaction processing emulation over a travel reservation
// database (paper §3.6). Three resource tables (cars, flights, rooms) and a
// customer table are red-black trees in transactional memory; each task is
// one transaction that queries several resources and reserves the best one,
// cancels a customer, or updates the tables.
//
// The Low configuration matches the paper's Vacation-Low profile
// (moderately long transactions, low contention: few queries over a wide
// range, almost all tasks are user reservations); High matches
// Vacation-High (more queries over a narrower range and more administrative
// tasks, i.e. heavier and more conflict-prone transactions).
package vacation

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// Resource kinds.
const (
	kindCar = iota
	kindFlight
	kindRoom
	numKinds
)

// Resource record layout (padded to its own cache line by allocation size).
const (
	resTotal = iota
	resFree
	resPrice
	resWords = mem.LineWords
)

// Config sizes the workload.
type Config struct {
	// Relations is the number of rows in each resource table.
	Relations int
	// Queries is the number of resources examined per reservation task.
	Queries int
	// QueryRange is the fraction of each table a task may touch.
	QueryRange float64
	// UserPct is the percentage of tasks that are reservations; the rest
	// split evenly between customer deletions and table updates.
	UserPct int
}

// Low is the paper's Vacation-Low profile (scaled to simulator size).
func Low() Config {
	return Config{Relations: 256, Queries: 2, QueryRange: 0.9, UserPct: 98}
}

// High is the paper's Vacation-High profile.
func High() Config {
	return Config{Relations: 256, Queries: 4, QueryRange: 0.6, UserPct: 90}
}

// App is one vacation database instance.
type App struct {
	cfg       Config
	resources [numKinds]rbtree.Tree
	customers rbtree.Tree
}

// New creates an app with the given config; call Setup before workers.
func New(cfg Config) *App {
	if cfg.Relations <= 0 {
		cfg = Low()
	}
	return &App{cfg: cfg}
}

// Setup populates the tables.
func (a *App) Setup(th tm.Thread) error {
	if err := th.Run(func(tx tm.Tx) error {
		for k := 0; k < numKinds; k++ {
			a.resources[k] = rbtree.New(tx)
		}
		a.customers = rbtree.New(tx)
		return nil
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(0x5eed))
	const batch = 32
	for start := 0; start < a.cfg.Relations; start += batch {
		end := start + batch
		if end > a.cfg.Relations {
			end = a.cfg.Relations
		}
		if err := th.Run(func(tx tm.Tx) error {
			for id := start; id < end; id++ {
				for k := 0; k < numKinds; k++ {
					rec := tx.Alloc(resWords)
					n := uint64(50 + rng.Intn(50))
					tx.Store(rec+resTotal, n)
					tx.Store(rec+resFree, n)
					tx.Store(rec+resPrice, uint64(50+rng.Intn(450)))
					a.resources[k].Put(tx, uint64(id), uint64(rec))
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// worker issues vacation tasks on its own TM thread.
type worker struct {
	app *App
	th  tm.Thread
	rng *rand.Rand
}

// NewWorker returns a worker bound to th; each call of the closure runs one
// task transaction. The kernel reports nothing in flight: its oracle is
// Check.
func (a *App) NewWorker(th tm.Thread, seed int64, _ conformance.Report) func() error {
	return (&worker{app: a, th: th, rng: rand.New(rand.NewSource(seed))}).op
}

// op runs one task transaction.
func (w *worker) op() error {
	r := w.rng.Intn(100)
	switch {
	case r < w.app.cfg.UserPct:
		return w.makeReservation()
	case r < w.app.cfg.UserPct+(100-w.app.cfg.UserPct)/2:
		return w.deleteCustomer()
	default:
		return w.updateTables()
	}
}

func (w *worker) randID() uint64 {
	span := int(float64(w.app.cfg.Relations) * w.app.cfg.QueryRange)
	if span < 1 {
		span = 1
	}
	return uint64(w.rng.Intn(span))
}

// makeReservation queries cfg.Queries random resources and reserves the
// highest-priced available one for a (possibly new) customer — the STAMP
// client logic.
func (w *worker) makeReservation() error {
	type query struct {
		kind int
		id   uint64
	}
	queries := make([]query, w.app.cfg.Queries)
	for i := range queries {
		queries[i] = query{w.rng.Intn(numKinds), w.randID()}
	}
	custID := w.randID()
	return w.th.Run(func(tx tm.Tx) error {
		bestPrice := uint64(0)
		bestRec := mem.Nil
		bestKind, bestID := 0, uint64(0)
		for _, q := range queries {
			recAddr, ok := w.app.resources[q.kind].Get(tx, q.id)
			if !ok {
				continue
			}
			rec := mem.Addr(recAddr)
			if tx.Load(rec+resFree) == 0 {
				continue
			}
			if p := tx.Load(rec + resPrice); p > bestPrice {
				bestPrice, bestRec, bestKind, bestID = p, rec, q.kind, q.id
			}
		}
		if bestRec == mem.Nil {
			return nil // nothing available; the task still commits
		}
		// Ensure the customer exists, with a reservation list.
		listAddr, ok := w.app.customers.Get(tx, custID)
		var list txds.Stack
		if !ok {
			list = txds.NewStack(tx)
			w.app.customers.Put(tx, custID, uint64(list.Head()))
		} else {
			list = txds.AttachStack(mem.Addr(listAddr))
		}
		tx.Store(bestRec+resFree, tx.Load(bestRec+resFree)-1)
		list.Push(tx, uint64(bestKind)<<32|bestID)
		return nil
	})
}

// deleteCustomer releases all of a random customer's reservations and
// removes the customer.
func (w *worker) deleteCustomer() error {
	custID := w.randID()
	return w.th.Run(func(tx tm.Tx) error {
		listAddr, ok := w.app.customers.Get(tx, custID)
		if !ok {
			return nil
		}
		list := txds.AttachStack(mem.Addr(listAddr))
		for {
			v, ok := list.Pop(tx)
			if !ok {
				break
			}
			kind := int(v >> 32)
			id := v & 0xffffffff
			if recAddr, ok := w.app.resources[kind].Get(tx, id); ok {
				rec := mem.Addr(recAddr)
				tx.Store(rec+resFree, tx.Load(rec+resFree)+1)
			}
		}
		w.app.customers.Delete(tx, custID)
		list.Dispose(tx)
		return nil
	})
}

// updateTables performs the administrative task: price changes and capacity
// growth on random rows.
func (w *worker) updateTables() error {
	kind := w.rng.Intn(numKinds)
	id := w.randID()
	newPrice := uint64(50 + w.rng.Intn(450))
	grow := w.rng.Intn(2) == 0
	return w.th.Run(func(tx tm.Tx) error {
		recAddr, ok := w.app.resources[kind].Get(tx, id)
		if !ok {
			return nil
		}
		rec := mem.Addr(recAddr)
		if grow {
			tx.Store(rec+resTotal, tx.Load(rec+resTotal)+1)
			tx.Store(rec+resFree, tx.Load(rec+resFree)+1)
		} else {
			tx.Store(rec+resPrice, newPrice)
		}
		return nil
	})
}

// Check verifies that for every resource, total − free equals the number
// of outstanding customer reservations referencing it. It must run on a
// quiescent system.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		held := make(map[[2]uint64]uint64) // (kind,id) -> count
		for _, cust := range a.customers.Keys(tx) {
			listAddr, ok := a.customers.Get(tx, cust)
			if !ok {
				return fmt.Errorf("vacation: customer %d vanished mid-check", cust)
			}
			list := txds.AttachStack(mem.Addr(listAddr))
			list.ForEach(tx, func(v uint64) {
				held[[2]uint64{v >> 32, v & 0xffffffff}]++
			})
		}
		for k := 0; k < numKinds; k++ {
			for _, id := range a.resources[k].Keys(tx) {
				recAddr, _ := a.resources[k].Get(tx, id)
				rec := mem.Addr(recAddr)
				total, free := tx.Load(rec+resTotal), tx.Load(rec+resFree)
				if free > total {
					return fmt.Errorf("vacation: resource (%d,%d) free %d > total %d", k, id, free, total)
				}
				if want := held[[2]uint64{uint64(k), id}]; total-free != want {
					return fmt.Errorf("vacation: resource (%d,%d) reserved %d but %d held by customers", k, id, total-free, want)
				}
			}
		}
		return nil
	})
}
