package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/stamp/bayes"
	"rhnorec/internal/stamp/genome"
	"rhnorec/internal/stamp/intruder"
	"rhnorec/internal/stamp/kmeans"
	"rhnorec/internal/stamp/labyrinth"
	"rhnorec/internal/stamp/ssca2"
	"rhnorec/internal/stamp/vacation"
	"rhnorec/internal/stamp/yada"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// WorkloadFactory builds a fresh workload instance; the figure drivers
// create one per benchmark point because each point runs over fresh memory.
type WorkloadFactory func() Workload

// RBTreeConfig parameterizes the paper's microbenchmark (§3.5).
type RBTreeConfig struct {
	// Size is the steady-state node count (the paper uses 10,000); keys
	// are drawn from [0, 2*Size).
	Size int
	// MutationRatio is the fraction of operations that write (the paper
	// sweeps 4%, 10%, 40%); writes split evenly between put and delete.
	MutationRatio float64
}

// rbWorkload implements Workload for the red-black-tree microbenchmark.
type rbWorkload struct {
	cfg  RBTreeConfig
	tree rbtree.Tree
}

// RBTree returns a factory for the §3.5 microbenchmark.
func RBTree(cfg RBTreeConfig) WorkloadFactory {
	return func() Workload { return &rbWorkload{cfg: cfg} }
}

func (w *rbWorkload) Name() string {
	return fmt.Sprintf("rbtree-%d", int(w.cfg.MutationRatio*100+0.5))
}

func (w *rbWorkload) Setup(th tm.Thread) error {
	if err := th.Run(func(tx tm.Tx) error {
		w.tree = rbtree.New(tx)
		return nil
	}); err != nil {
		return err
	}
	// Populate every even key: Size nodes over a 2*Size key range, so puts
	// and deletes hold the size steady.
	const batch = 64
	for start := 0; start < w.cfg.Size; start += batch {
		end := start + batch
		if end > w.cfg.Size {
			end = w.cfg.Size
		}
		if err := th.Run(func(tx tm.Tx) error {
			for k := start; k < end; k++ {
				w.tree.Put(tx, uint64(2*k), uint64(k))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *rbWorkload) NewOp(th tm.Thread, seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	keyRange := uint64(2 * w.cfg.Size)
	return func() error {
		k := rng.Uint64() % keyRange
		r := rng.Float64()
		switch {
		case r < w.cfg.MutationRatio/2:
			return th.Run(func(tx tm.Tx) error {
				w.tree.Put(tx, k, k)
				return nil
			})
		case r < w.cfg.MutationRatio:
			return th.Run(func(tx tm.Tx) error {
				w.tree.Delete(tx, k)
				return nil
			})
		default:
			return th.RunReadOnly(func(tx tm.Tx) error {
				w.tree.Get(tx, k)
				return nil
			})
		}
	}
}

// DisjointConfig parameterizes the disjoint-footprint scaling workload.
type DisjointConfig struct {
	// Lines is the number of cache lines each thread's transaction writes
	// (default 4). With line-interleaved striping, a thread's Lines
	// consecutive lines land on Lines consecutive stripes, so threads'
	// footprints are stripe-disjoint as long as threads*Lines stays within
	// the stripe count.
	Lines int
}

// disjointWorkload gives every worker thread a private block of cache
// lines; each op is one write transaction that increments every line of
// the block. Under the per-stripe substrate these commits touch disjoint
// stripes and never serialize on the memory; at -stripes 1 they all
// contend on the single seqlock — the workload isolates exactly the
// substrate-level commit contention that striping removes.
type disjointWorkload struct {
	cfg  DisjointConfig
	base mem.Addr
	slot atomic.Int64
}

const disjointSlots = 64

// Disjoint returns a factory for the striping scaling workload.
func Disjoint(cfg DisjointConfig) WorkloadFactory {
	if cfg.Lines <= 0 {
		cfg.Lines = 4
	}
	return func() Workload { return &disjointWorkload{cfg: cfg} }
}

func (w *disjointWorkload) Name() string {
	return fmt.Sprintf("disjoint-%d", w.cfg.Lines)
}

func (w *disjointWorkload) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		// Over-allocate one line so the slot blocks can start on a line
		// boundary: an unaligned base would let adjacent slots share their
		// boundary line's stripe.
		raw := tx.Alloc((disjointSlots*w.cfg.Lines + 1) * mem.LineWords)
		w.base = (raw + mem.LineWords - 1) &^ (mem.LineWords - 1)
		return nil
	})
}

func (w *disjointWorkload) NewOp(th tm.Thread, seed int64) func() error {
	// NewOp runs once per worker, so the atomic counter hands each worker
	// its own slot (wrapping only past disjointSlots threads).
	slot := int(w.slot.Add(1)-1) % disjointSlots
	base := w.base + mem.Addr(slot*w.cfg.Lines*mem.LineWords)
	lines := w.cfg.Lines
	return func() error {
		return th.Run(func(tx tm.Tx) error {
			for j := 0; j < lines; j++ {
				a := base + mem.Addr(j*mem.LineWords)
				tx.Store(a, tx.Load(a)+1)
			}
			return nil
		})
	}
}

// HotspotConfig parameterizes the high-contention workload.
type HotspotConfig struct {
	// Lines is the number of shared cache lines every transaction
	// read-modify-writes (default 2).
	Lines int
}

// hotspotWorkload is the adversarial opposite of disjointWorkload: every
// thread's every transaction read-modify-writes the same few shared lines,
// so any two concurrent writers conflict — the durability sweep's workload.
type hotspotWorkload struct {
	cfg  HotspotConfig
	base mem.Addr
}

// Hotspot returns a factory for the maximal-conflict workload.
func Hotspot(cfg HotspotConfig) WorkloadFactory {
	if cfg.Lines <= 0 {
		cfg.Lines = 2
	}
	return func() Workload { return &hotspotWorkload{cfg: cfg} }
}

func (w *hotspotWorkload) Name() string {
	return fmt.Sprintf("hotspot-%d", w.cfg.Lines)
}

func (w *hotspotWorkload) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		// Align the block to a line boundary so the footprint is exactly
		// cfg.Lines lines (and stripes) for every thread.
		raw := tx.Alloc((w.cfg.Lines + 1) * mem.LineWords)
		w.base = (raw + mem.LineWords - 1) &^ (mem.LineWords - 1)
		return nil
	})
}

func (w *hotspotWorkload) NewOp(th tm.Thread, _ int64) func() error {
	base := w.base
	lines := w.cfg.Lines
	return func() error {
		return th.Run(func(tx tm.Tx) error {
			for j := 0; j < lines; j++ {
				a := base + mem.Addr(j*mem.LineWords)
				tx.Store(a, tx.Load(a)+1)
			}
			return nil
		})
	}
}

// orderedWorkload drives the same mixed key-value operation profile as the
// RBTree microbenchmark over a different ordered structure (skip list or
// sorted list), for structure-comparison benchmarks.
type orderedWorkload struct {
	cfg     RBTreeConfig
	name    string
	create  func(tx tm.Tx) mem.Addr
	get     func(tx tm.Tx, head mem.Addr, k uint64)
	put     func(tx tm.Tx, head mem.Addr, k uint64)
	del     func(tx tm.Tx, head mem.Addr, k uint64)
	headPtr mem.Addr
}

// SkipListWorkload is the RBTree microbenchmark profile over a skip list.
func SkipListWorkload(cfg RBTreeConfig) WorkloadFactory {
	return func() Workload {
		return &orderedWorkload{
			cfg:    cfg,
			name:   "skiplist",
			create: func(tx tm.Tx) mem.Addr { return txds.NewSkipList(tx).Head() },
			get:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSkipList(h).Get(tx, k) },
			put:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSkipList(h).Put(tx, k, k) },
			del:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSkipList(h).Delete(tx, k) },
		}
	}
}

// SortedListWorkload is the RBTree microbenchmark profile over a sorted
// linked list (use small sizes: traversals are O(n)).
func SortedListWorkload(cfg RBTreeConfig) WorkloadFactory {
	return func() Workload {
		return &orderedWorkload{
			cfg:    cfg,
			name:   "sortedlist",
			create: func(tx tm.Tx) mem.Addr { return txds.NewSortedList(tx).Head() },
			get:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSortedList(h).Get(tx, k) },
			put:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSortedList(h).Put(tx, k, k) },
			del:    func(tx tm.Tx, h mem.Addr, k uint64) { txds.AttachSortedList(h).Delete(tx, k) },
		}
	}
}

func (w *orderedWorkload) Name() string { return w.name }

func (w *orderedWorkload) Setup(th tm.Thread) error {
	if err := th.Run(func(tx tm.Tx) error {
		w.headPtr = w.create(tx)
		return nil
	}); err != nil {
		return err
	}
	const batch = 64
	for start := 0; start < w.cfg.Size; start += batch {
		end := start + batch
		if end > w.cfg.Size {
			end = w.cfg.Size
		}
		if err := th.Run(func(tx tm.Tx) error {
			for k := start; k < end; k++ {
				w.put(tx, w.headPtr, uint64(2*k))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *orderedWorkload) NewOp(th tm.Thread, seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	keyRange := uint64(2 * w.cfg.Size)
	return func() error {
		k := rng.Uint64() % keyRange
		r := rng.Float64()
		switch {
		case r < w.cfg.MutationRatio/2:
			return th.Run(func(tx tm.Tx) error { w.put(tx, w.headPtr, k); return nil })
		case r < w.cfg.MutationRatio:
			return th.Run(func(tx tm.Tx) error { w.del(tx, w.headPtr, k); return nil })
		default:
			return th.RunReadOnly(func(tx tm.Tx) error { w.get(tx, w.headPtr, k); return nil })
		}
	}
}

// stampApp is the shape every package under internal/stamp gives its App: a
// named setup plus per-thread workers that run one operation at a time.
type stampApp[W interface{ Op() error }] interface {
	Name() string
	Setup(th tm.Thread) error
	NewWorker(th tm.Thread, seed int64) W
}

// appWorkload adapts a STAMP-style app to the Workload interface.
type appWorkload[W interface{ Op() error }] struct{ stampApp[W] }

func (w appWorkload[W]) NewOp(th tm.Thread, seed int64) func() error {
	return w.NewWorker(th, seed).Op
}

// stampWorkload wraps app; W is inferred from its NewWorker.
func stampWorkload[W interface{ Op() error }](app stampApp[W]) Workload {
	return appWorkload[W]{app}
}

// VacationLow is the paper's Vacation-Low column (Figure 5).
func VacationLow() WorkloadFactory {
	return func() Workload { return stampWorkload(vacation.New(vacation.Low())) }
}

// VacationHigh is the paper's Vacation-High column (Figure 6).
func VacationHigh() WorkloadFactory {
	return func() Workload { return stampWorkload(vacation.New(vacation.High())) }
}

// Intruder is the paper's Intruder column (Figure 5).
func Intruder() WorkloadFactory {
	return func() Workload { return stampWorkload(intruder.New(intruder.Default())) }
}

// Genome is the paper's Genome column (Figure 5).
func Genome() WorkloadFactory {
	return func() Workload { return stampWorkload(genome.New(genome.Default())) }
}

// SSCA2 is the paper's SSCA2 column (Figure 6).
func SSCA2() WorkloadFactory {
	return func() Workload { return stampWorkload(ssca2.New(ssca2.Default())) }
}

// Kmeans is noted in §3.6 as behaving like SSCA2.
func Kmeans() WorkloadFactory {
	return func() Workload { return stampWorkload(kmeans.New(kmeans.Default())) }
}

// Labyrinth is noted in §3.6 as behaving like SSCA2.
func Labyrinth() WorkloadFactory {
	return func() Workload { return stampWorkload(labyrinth.New(labyrinth.Default())) }
}

// Bayes is the STAMP app the paper omits "due to its inconsistent
// behavior" (§3.6); provided for completeness, outside the figure
// reproduction.
func Bayes() WorkloadFactory {
	return func() Workload { return stampWorkload(bayes.New(bayes.Default())) }
}

// Yada is the paper's Yada column (Figure 6).
func Yada() WorkloadFactory {
	return func() Workload { return stampWorkload(yada.New(yada.Default())) }
}
