package conformance

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// BankConfig parameterizes the bank-transfer workload: transfers between
// random accounts must preserve the total balance, and (optionally)
// read-only observers assert the in-transaction invariant — the opacity
// check every TM in this repository claims to satisfy.
type BankConfig struct {
	// Accounts is the number of accounts (each on its own cache line).
	Accounts int
	// Initial is every account's starting balance.
	Initial uint64
	// TransferMax bounds a single transfer amount (exclusive).
	TransferMax int
	// ObserverEvery, when > 0, makes roughly 1/ObserverEvery of the
	// operations run a read-only full-sum observer instead of a transfer.
	// Zero disables observers (and draws no dice for them, so the transfer
	// RNG sequence matches the observer-free workload exactly).
	ObserverEvery int
}

func (c BankConfig) withDefaults() BankConfig {
	if c.Accounts <= 0 {
		c.Accounts = 32
	}
	if c.Initial == 0 {
		c.Initial = 1000
	}
	if c.TransferMax <= 0 {
		c.TransferMax = 50
	}
	return c
}

// BankAccount returns account i's address given the base BankSetup returned.
func BankAccount(base mem.Addr, i int) mem.Addr {
	return base + mem.Addr(i*mem.LineWords)
}

// BankSetup allocates and funds the accounts, one per cache line.
func BankSetup(th tm.Thread, cfg BankConfig) (mem.Addr, error) {
	cfg = cfg.withDefaults()
	var base mem.Addr
	err := th.Run(func(tx tm.Tx) error {
		base = tx.Alloc(cfg.Accounts * mem.LineWords)
		for i := 0; i < cfg.Accounts; i++ {
			tx.Store(BankAccount(base, i), cfg.Initial)
		}
		return nil
	})
	return base, err
}

// BankOp performs one worker operation: a random transfer, or — on a
// 1/ObserverEvery draw — a read-only full-sum observer. Observer
// transactions report invariant violations through report (which must be
// non-nil when cfg.ObserverEvery > 0); violations inside attempts that
// later restart count too — opacity promises a consistent snapshot to live
// transactions, not just committed ones.
func BankOp(th tm.Thread, cfg BankConfig, base mem.Addr, rng *rand.Rand, report Report) error {
	cfg = cfg.withDefaults()
	if cfg.ObserverEvery > 0 && rng.Intn(cfg.ObserverEvery) == 0 {
		want := uint64(cfg.Accounts) * cfg.Initial
		return th.RunReadOnly(func(tx tm.Tx) error {
			var sum uint64
			for k := 0; k < cfg.Accounts; k++ {
				sum += tx.Load(BankAccount(base, k))
			}
			if sum != want {
				report(fmt.Sprintf("bank observer: sum %d, want %d", sum, want))
			}
			return nil
		})
	}
	from, to := rng.Intn(cfg.Accounts), rng.Intn(cfg.Accounts)
	amt := uint64(rng.Intn(cfg.TransferMax))
	return th.Run(func(tx tm.Tx) error {
		bf := tx.Load(BankAccount(base, from))
		bt := tx.Load(BankAccount(base, to))
		if bf < amt {
			return nil // insufficient funds; still commits (no-op)
		}
		if from == to {
			return nil
		}
		tx.Store(BankAccount(base, from), bf-amt)
		tx.Store(BankAccount(base, to), bt+amt)
		return nil
	})
}

// BankCheck verifies the conserved total over a tear-free snapshot.
func BankCheck(m *mem.Memory, cfg BankConfig, base mem.Addr) error {
	cfg = cfg.withDefaults()
	snap := make([]uint64, cfg.Accounts*mem.LineWords)
	m.Snapshot(base, snap)
	var total uint64
	for i := 0; i < cfg.Accounts; i++ {
		total += snap[i*mem.LineWords]
	}
	if want := uint64(cfg.Accounts) * cfg.Initial; total != want {
		return fmt.Errorf("bank: total balance %d, want %d", total, want)
	}
	return nil
}

type bankInstance struct {
	cfg  BankConfig
	base mem.Addr
}

func (b *bankInstance) Setup(th tm.Thread) error {
	base, err := BankSetup(th, b.cfg)
	b.base = base
	return err
}

func (b *bankInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return BankOp(th, b.cfg, b.base, rng, report) }
}

func (b *bankInstance) Check(sys tm.System) error {
	return BankCheck(sys.Memory(), b.cfg, b.base)
}

// bankScenario is the original conserved-total workload. The explore-scale
// config is frozen by recorded trace fixtures; the soak-scale config is the
// shape rhbench -experiment scenarios drives.
var bankScenario = Scenario{
	Name:           "bank",
	ExploreWorkers: 3,
	ExploreOps:     4,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &bankInstance{cfg: BankConfig{Accounts: 4, Initial: 100, TransferMax: 10, ObserverEvery: 3}}
		case ScaleSoak:
			return &bankInstance{cfg: BankConfig{Accounts: 64, TransferMax: 20, ObserverEvery: 4}}
		default:
			return &bankInstance{cfg: BankConfig{ObserverEvery: 4}}
		}
	},
}
