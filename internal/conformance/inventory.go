package conformance

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// InventoryConfig parameterizes the inventory/checkout workload: carts of
// hot-skewed SKUs decrement stock and increment sold in one transaction,
// restocks add supply, and conservation — stock + sold == initial +
// restocked, with stock never below zero — is the invariant, checked in
// the checkout transaction itself, by read-only auditors, and at the end.
type InventoryConfig struct {
	// SKUs is the catalog size (one cache line each).
	SKUs int
	// Hot is the hot-SKU subset size; 3/4 of cart picks land there.
	Hot int
	// Initial is the starting stock per SKU.
	Initial uint64
	// MaxCart bounds the items per checkout (inclusive).
	MaxCart int
	// Restock is the units added per restock operation.
	Restock uint64
}

func (c InventoryConfig) withDefaults() InventoryConfig {
	if c.SKUs <= 0 {
		c.SKUs = 16
	}
	if c.Hot <= 0 {
		c.Hot = c.SKUs / 4
		if c.Hot < 1 {
			c.Hot = 1
		}
	}
	if c.Initial == 0 {
		c.Initial = 50
	}
	if c.MaxCart <= 0 {
		c.MaxCart = 3
	}
	if c.Restock == 0 {
		c.Restock = 25
	}
	return c
}

// SKU line layout: word 0 stock, 1 sold, 2 restocked.
type inventoryInstance struct {
	cfg  InventoryConfig
	base mem.Addr
}

func (s *inventoryInstance) sku(k int) mem.Addr {
	return s.base + mem.Addr(k*mem.LineWords)
}

func (s *inventoryInstance) Setup(th tm.Thread) error {
	cfg := s.cfg.withDefaults()
	s.cfg = cfg
	return th.Run(func(tx tm.Tx) error {
		s.base = tx.Alloc(cfg.SKUs * mem.LineWords)
		for k := 0; k < cfg.SKUs; k++ {
			tx.Store(s.sku(k), cfg.Initial)
		}
		return nil
	})
}

func (s *inventoryInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return s.op(th, rng, report) }
}

// pick draws a SKU with the hot skew: 3/4 of picks from the hot subset.
func (s *inventoryInstance) pick(rng *rand.Rand) int {
	if rng.Intn(4) != 0 {
		return rng.Intn(s.cfg.Hot)
	}
	return rng.Intn(s.cfg.SKUs)
}

// op draws one operation: 1/8 restock, 1/8 read-only catalog audit, 6/8 a
// cart checkout. The cart is drawn before the transaction so a restart
// replays the same operation.
func (s *inventoryInstance) op(th tm.Thread, rng *rand.Rand, report Report) error {
	cfg := s.cfg
	switch rng.Intn(8) {
	case 0: // restock one SKU
		k := s.pick(rng)
		return th.Run(func(tx tm.Tx) error {
			a := s.sku(k)
			tx.Store(a, tx.Load(a)+cfg.Restock)
			tx.Store(a+2, tx.Load(a+2)+cfg.Restock)
			return nil
		})
	case 1: // audit: conservation over the whole catalog in one snapshot
		return th.RunReadOnly(func(tx tm.Tx) error {
			for k := 0; k < cfg.SKUs; k++ {
				a := s.sku(k)
				if tx.Load(a)+tx.Load(a+1) != cfg.Initial+tx.Load(a+2) {
					report(fmt.Sprintf("inventory audit: sku %d stock %d + sold %d != initial %d + restocked %d",
						k, tx.Load(a), tx.Load(a+1), cfg.Initial, tx.Load(a+2)))
				}
			}
			return nil
		})
	default: // checkout: decrement stock, increment sold, per cart item
		cart := make([]int, 1+rng.Intn(cfg.MaxCart))
		for i := range cart {
			cart[i] = s.pick(rng)
		}
		return th.Run(func(tx tm.Tx) error {
			for _, k := range cart {
				a := s.sku(k)
				st := tx.Load(a)
				if st == 0 {
					continue // out of stock: skip the line item
				}
				tx.Store(a, st-1)
				tx.Store(a+1, tx.Load(a+1)+1)
			}
			// In-transaction invariant on every touched SKU.
			for _, k := range cart {
				a := s.sku(k)
				if tx.Load(a)+tx.Load(a+1) != cfg.Initial+tx.Load(a+2) {
					report(fmt.Sprintf("inventory: sku %d conservation broken in-txn", k))
				}
			}
			return nil
		})
	}
}

func (s *inventoryInstance) Check(sys tm.System) error {
	cfg := s.cfg
	snap := make([]uint64, cfg.SKUs*mem.LineWords)
	sys.Memory().Snapshot(s.base, snap)
	for k := 0; k < cfg.SKUs; k++ {
		w := k * mem.LineWords
		if snap[w]+snap[w+1] != cfg.Initial+snap[w+2] {
			return fmt.Errorf("inventory: sku %d stock %d + sold %d != initial %d + restocked %d",
				k, snap[w], snap[w+1], cfg.Initial, snap[w+2])
		}
	}
	return nil
}

// inventoryScenario models a storefront checkout path: multi-line
// read-modify-write carts colliding on a few bestseller SKUs.
var inventoryScenario = Scenario{
	Name:           "inventory",
	ExploreWorkers: 3,
	ExploreOps:     4,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &inventoryInstance{cfg: InventoryConfig{SKUs: 3, Hot: 1, Initial: 5, MaxCart: 2, Restock: 3}}
		case ScaleSoak:
			return &inventoryInstance{cfg: InventoryConfig{SKUs: 64, Initial: 100}}
		default:
			return &inventoryInstance{cfg: InventoryConfig{}}
		}
	},
}
