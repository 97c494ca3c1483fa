package conformance

import (
	"math/rand"

	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
)

// TreeConfig parameterizes the red-black tree workload: concurrent
// put/delete/get traffic must preserve the structural invariants.
type TreeConfig struct {
	// InitialKeys seeds the tree with keys 0, 2, ..., 2*(InitialKeys-1).
	InitialKeys int
	// KeySpace bounds the keys workers touch (exclusive).
	KeySpace int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.InitialKeys <= 0 {
		c.InitialKeys = 128
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 2 * c.InitialKeys
	}
	return c
}

// TreeSetup builds and seeds the shared tree.
func TreeSetup(th tm.Thread, cfg TreeConfig) (rbtree.Tree, error) {
	cfg = cfg.withDefaults()
	var tree rbtree.Tree
	err := th.Run(func(tx tm.Tx) error {
		tree = rbtree.New(tx)
		for k := uint64(0); k < uint64(cfg.InitialKeys); k++ {
			tree.Put(tx, k*2, k)
		}
		return nil
	})
	return tree, err
}

// TreeOp performs one worker operation (30% put, 20% delete, 50% lookup).
func TreeOp(th tm.Thread, tree rbtree.Tree, cfg TreeConfig, rng *rand.Rand) error {
	cfg = cfg.withDefaults()
	k := uint64(rng.Intn(cfg.KeySpace))
	switch rng.Intn(10) {
	case 0, 1, 2:
		return th.Run(func(tx tm.Tx) error { tree.Put(tx, k, k); return nil })
	case 3, 4:
		return th.Run(func(tx tm.Tx) error { tree.Delete(tx, k); return nil })
	default:
		return th.RunReadOnly(func(tx tm.Tx) error { tree.Get(tx, k); return nil })
	}
}

// TreeCheck validates the red-black invariants in one transaction.
func TreeCheck(th tm.Thread, tree rbtree.Tree) error {
	return th.Run(func(tx tm.Tx) error { return tree.CheckInvariants(tx) })
}

type treeInstance struct {
	cfg  TreeConfig
	tree rbtree.Tree
}

func (t *treeInstance) Setup(th tm.Thread) error {
	tree, err := TreeSetup(th, t.cfg)
	t.tree = tree
	return err
}

func (t *treeInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return TreeOp(th, t.tree, t.cfg, rng) }
}

func (t *treeInstance) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return TreeCheck(th, t.tree)
}

// rbtreeScenario is the structural-invariant workload over the
// transactional red-black tree. The explore-scale config is frozen by
// recorded trace fixtures.
var rbtreeScenario = Scenario{
	Name:           "rbtree",
	ExploreWorkers: 2,
	ExploreOps:     3,
	MemWords:       1 << 18,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &treeInstance{cfg: TreeConfig{InitialKeys: 8, KeySpace: 32}}
		case ScaleTest:
			return &treeInstance{cfg: TreeConfig{InitialKeys: 32, KeySpace: 64}}
		default:
			return &treeInstance{cfg: TreeConfig{}}
		}
	},
}
