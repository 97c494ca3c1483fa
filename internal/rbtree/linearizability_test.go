package rbtree_test

import (
	"math/rand"
	"sync"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/linearize"
	"rhnorec/internal/mem"
	"rhnorec/internal/rbtree"
	"rhnorec/internal/tm"
)

// TestLinearizability records a concurrent history of tree operations and
// verifies it against sequential map semantics with the linearizability
// checker — a stronger statement than invariant checking: not only does the
// tree stay structurally sound, every individual result is explainable by
// a single total order consistent with real time.
func TestLinearizability(t *testing.T) {
	configs := map[string]func(m *mem.Memory) tm.System{
		"rh-norec": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
		"rh-norec-tiny-htm": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{ReadCapacityLines: 8, WriteCapacityLines: 4, SpuriousAbortProb: 0.01})
			d.SetActiveThreads(4)
			return core.New(m, d, tm.RetryPolicy{})
		},
		"hy-norec": func(m *mem.Memory) tm.System {
			d := htm.NewDevice(m, htm.Config{})
			d.SetActiveThreads(4)
			return core.NewHybridNOrec(m, d, tm.RetryPolicy{})
		},
	}
	for name, factory := range configs {
		t.Run(name, func(t *testing.T) {
			sys := factory(mem.New(1 << 21))
			setup := sys.NewThread()
			var tree rbtree.Tree
			if err := setup.Run(func(tx tm.Tx) error {
				tree = rbtree.New(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			setup.Close()
			rec := linearize.NewRecorder()
			// keys is sized so per-key subhistories stay safely under the
			// checker's 64-op partition cap (mean 40, ~4σ headroom).
			const threads, ops, keys = 4, 100, 10
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := sys.NewThread()
					defer th.Close()
					rng := rand.New(rand.NewSource(seed))
					for j := 0; j < ops; j++ {
						key := uint64(rng.Intn(keys))
						switch rng.Intn(3) {
						case 0:
							val := rng.Uint64() >> 1
							rec.Do(linearize.Put, key, val, func() (uint64, bool) {
								var prev uint64
								var replaced bool
								if err := th.Run(func(tx tm.Tx) error {
									prev, replaced = tree.Put(tx, key, val)
									return nil
								}); err != nil {
									t.Errorf("put: %v", err)
								}
								return prev, replaced
							})
						case 1:
							rec.Do(linearize.Get, key, 0, func() (uint64, bool) {
								var v uint64
								var ok bool
								if err := th.RunReadOnly(func(tx tm.Tx) error {
									v, ok = tree.Get(tx, key)
									return nil
								}); err != nil {
									t.Errorf("get: %v", err)
								}
								return v, ok
							})
						case 2:
							rec.Do(linearize.Delete, key, 0, func() (uint64, bool) {
								var v uint64
								var ok bool
								if err := th.Run(func(tx tm.Tx) error {
									v, ok = tree.Delete(tx, key)
									return nil
								}); err != nil {
									t.Errorf("delete: %v", err)
								}
								return v, ok
							})
						}
					}
				}(int64(i + 1))
			}
			wg.Wait()
			h := rec.History()
			res, err := linearize.CheckErr(h)
			if err != nil {
				t.Fatalf("checker: %v", err)
			}
			if !res.Linearizable {
				t.Errorf("history of %d ops NOT linearizable (key %d, %d ops)", len(h), res.FailedKey, res.Ops)
			}
		})
	}
}
