package bench

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
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

// Workload is one benchmarkable application: the name it reports under and
// a constructor of fresh instances, one per point because each point runs
// over fresh memory. The instance's Check is the point's oracle.
type Workload struct {
	Name string
	New  func() conformance.Instance
}

// RBTreeConfig parameterizes the paper's microbenchmark (§3.5).
type RBTreeConfig struct {
	// Size is the steady-state node count (the paper uses 10,000); keys
	// are drawn from [0, 2*Size).
	Size int
	// MutationRatio is the fraction of operations that write (the paper
	// sweeps 4%, 10%, 40%); writes split evenly between put and delete.
	MutationRatio float64
}

// RBTree is the §3.5 microbenchmark.
func RBTree(cfg RBTreeConfig) Workload {
	return ordered(fmt.Sprintf("rbtree-%d", int(cfg.MutationRatio*100+0.5)), cfg,
		func(tx tm.Tx) orderedMap { return rbtree.New(tx) })
}

// SkipListWorkload is the RBTree microbenchmark profile over a skip list.
func SkipListWorkload(cfg RBTreeConfig) Workload {
	return ordered("skiplist", cfg, func(tx tm.Tx) orderedMap { return txds.NewSkipList(tx) })
}

// SortedListWorkload is the RBTree microbenchmark profile over a sorted
// linked list (use small sizes: traversals are O(n)).
func SortedListWorkload(cfg RBTreeConfig) Workload {
	return ordered("sortedlist", cfg, func(tx tm.Tx) orderedMap { return txds.NewSortedList(tx) })
}

// orderedMap is the transactional ordered map an orderedWorkload drives:
// rbtree.Tree, txds.SkipList or txds.SortedList. Its CheckInvariants is the
// workload's oracle.
type orderedMap interface {
	Get(tx tm.Tx, key uint64) (uint64, bool)
	Put(tx tm.Tx, key, value uint64) (uint64, bool)
	Delete(tx tm.Tx, key uint64) (uint64, bool)
	CheckInvariants(tx tm.Tx) error
}

// orderedWorkload is the RBTree microbenchmark's mixed key-value operation
// profile over one ordered structure.
type orderedWorkload struct {
	cfg    RBTreeConfig
	create func(tx tm.Tx) orderedMap
	m      orderedMap
}

func ordered(name string, cfg RBTreeConfig, create func(tx tm.Tx) orderedMap) Workload {
	return Workload{Name: name, New: func() conformance.Instance {
		return &orderedWorkload{cfg: cfg, create: create}
	}}
}

func (w *orderedWorkload) Setup(th tm.Thread) error {
	if err := th.Run(func(tx tm.Tx) error {
		w.m = w.create(tx)
		return nil
	}); err != nil {
		return err
	}
	// Populate every even key: Size keys over a 2*Size key range, so puts
	// and deletes hold the size steady.
	const batch = 64
	for start := 0; start < w.cfg.Size; start += batch {
		end := start + batch
		if end > w.cfg.Size {
			end = w.cfg.Size
		}
		if err := th.Run(func(tx tm.Tx) error {
			for k := start; k < end; k++ {
				w.m.Put(tx, uint64(2*k), uint64(k))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *orderedWorkload) NewWorker(th tm.Thread, seed int64, _ conformance.Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	keyRange := uint64(2 * w.cfg.Size)
	return func() error {
		k := rng.Uint64() % keyRange
		r := rng.Float64()
		switch {
		case r < w.cfg.MutationRatio/2:
			return th.Run(func(tx tm.Tx) error { w.m.Put(tx, k, k); return nil })
		case r < w.cfg.MutationRatio:
			return th.Run(func(tx tm.Tx) error { w.m.Delete(tx, k); return nil })
		default:
			return th.RunReadOnly(func(tx tm.Tx) error { w.m.Get(tx, k); return nil })
		}
	}
}

func (w *orderedWorkload) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(w.m.CheckInvariants)
}

// HotspotConfig parameterizes the high-contention workload.
type HotspotConfig struct {
	// Lines is the number of shared cache lines every transaction
	// read-modify-writes (default 2).
	Lines int
}

// Hotspot is one block of cache lines that every thread's every
// transaction read-modify-writes, so any two concurrent writers conflict —
// the durability sweep's workload.
func Hotspot(cfg HotspotConfig) Workload {
	if cfg.Lines <= 0 {
		cfg.Lines = 2
	}
	return Workload{Name: fmt.Sprintf("hotspot-%d", cfg.Lines), New: func() conformance.Instance {
		return &hotspotWorkload{lines: cfg.Lines}
	}}
}

// hotspotWorkload is Hotspot's instance: each op is one write transaction
// that increments one word on each line of the block. Its oracle: the
// words read equal.
type hotspotWorkload struct {
	lines int
	base  mem.Addr
}

// line is the address of the word on line j of the block.
func (w *hotspotWorkload) line(j int) mem.Addr { return w.base + mem.Addr(j*mem.LineWords) }

func (w *hotspotWorkload) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		w.base = tx.Alloc(w.lines * mem.LineWords)
		return nil
	})
}

func (w *hotspotWorkload) NewWorker(th tm.Thread, _ int64, _ conformance.Report) func() error {
	return func() error {
		return th.Run(func(tx tm.Tx) error {
			for j := 0; j < w.lines; j++ {
				a := w.line(j)
				tx.Store(a, tx.Load(a)+1)
			}
			return nil
		})
	}
}

func (w *hotspotWorkload) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		first := tx.Load(w.line(0))
		for j := 1; j < w.lines; j++ {
			if v := tx.Load(w.line(j)); v != first {
				return fmt.Errorf("line %d reads %d, line 0 reads %d", j, v, first)
			}
		}
		return nil
	})
}

// The STAMP kernels (§3.6). Each App is a conformance.Instance whose Check
// is the kernel's integrity oracle.

// VacationLow is the paper's Vacation-Low column (Figure 5).
func VacationLow() Workload {
	return Workload{"vacation-low", func() conformance.Instance { return vacation.New(vacation.Low()) }}
}

// VacationHigh is the paper's Vacation-High column (Figure 6).
func VacationHigh() Workload {
	return Workload{"vacation-high", func() conformance.Instance { return vacation.New(vacation.High()) }}
}

// Intruder is the paper's Intruder column (Figure 5).
func Intruder() Workload {
	return Workload{"intruder", func() conformance.Instance { return intruder.New(intruder.Default()) }}
}

// Genome is the paper's Genome column (Figure 5).
func Genome() Workload {
	return Workload{"genome", func() conformance.Instance { return genome.New(genome.Default()) }}
}

// SSCA2 is the paper's SSCA2 column (Figure 6).
func SSCA2() Workload {
	return Workload{"ssca2", func() conformance.Instance { return ssca2.New(ssca2.Default()) }}
}

// Kmeans is noted in §3.6 as behaving like SSCA2.
func Kmeans() Workload {
	return Workload{"kmeans", func() conformance.Instance { return kmeans.New(kmeans.Default()) }}
}

// Labyrinth is noted in §3.6 as behaving like SSCA2.
func Labyrinth() Workload {
	return Workload{"labyrinth", func() conformance.Instance { return labyrinth.New(labyrinth.Default()) }}
}

// Yada is the paper's Yada column (Figure 6).
func Yada() Workload {
	return Workload{"yada", func() conformance.Instance { return yada.New(yada.Default()) }}
}

// ScenarioWorkloads returns one workload per conformance-registry scenario
// at the given scale, in registry order — the workload set of the scenarios
// experiment and the CI conformance-matrix gate.
func ScenarioWorkloads(scale conformance.Scale) []Workload {
	scs := conformance.Scenarios()
	ws := make([]Workload, len(scs))
	for i, sc := range scs {
		ws[i] = ScenarioWorkload(sc, scale)
	}
	return ws
}

// ScenarioWorkload is one registry scenario at the given scale.
func ScenarioWorkload(sc conformance.Scenario, scale conformance.Scale) Workload {
	return Workload{Name: sc.Name, New: func() conformance.Instance { return sc.New(scale) }}
}
