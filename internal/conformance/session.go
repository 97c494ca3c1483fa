package conformance

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// SessionConfig parameterizes the session-store workload: a fixed table of
// session slots under create/refresh/read traffic with TTL eviction sweeps
// against a logical clock. Every live slot carries a checksum over its
// fields, and a count word tracks the live population — both are verified
// in-transaction by readers and auditors, and over a snapshot at the end.
type SessionConfig struct {
	// Slots is the session-table size (one cache line per slot).
	Slots int
	// TTL is a lease's lifetime in logical clock ticks.
	TTL uint64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Slots <= 0 {
		c.Slots = 16
	}
	if c.TTL == 0 {
		c.TTL = 4
	}
	return c
}

// sessionSalt folds into every slot checksum so a zeroed slot never looks
// accidentally consistent while its state word claims it is live.
const sessionSalt = 0x5eed

// Slot line layout: word 0 state (0 free, 1 live), 1 expiry, 2 value,
// 3 checksum = value ^ expiry ^ sessionSalt. Line 0 of the region is the
// logical clock, line 1 the live count, slots start at line 2.
type sessionInstance struct {
	cfg   SessionConfig
	clock mem.Addr
	count mem.Addr
}

func (s *sessionInstance) slot(i int) mem.Addr {
	return s.clock + mem.Addr((2+i)*mem.LineWords)
}

func (s *sessionInstance) Setup(th tm.Thread) error {
	cfg := s.cfg.withDefaults()
	s.cfg = cfg
	return th.Run(func(tx tm.Tx) error {
		s.clock = tx.Alloc((2 + cfg.Slots) * mem.LineWords)
		s.count = s.clock + mem.LineWords
		return nil // fresh memory is zero: clock 0, no live sessions
	})
}

func (s *sessionInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return s.op(th, rng, report) }
}

// op draws one operation: 1/16 clock tick, 1/16 eviction sweep, 1/16
// read-only full audit, 5/16 create-or-refresh, 8/16 single-session read.
// The clock line is read by every mutation (the classic read-mostly hot
// word), and eviction sweeps conflict with concurrent creates.
func (s *sessionInstance) op(th tm.Thread, rng *rand.Rand, report Report) error {
	cfg := s.cfg
	switch r := rng.Intn(16); {
	case r == 0: // advance the TTL clock
		return th.Run(func(tx tm.Tx) error {
			tx.Store(s.clock, tx.Load(s.clock)+1)
			return nil
		})
	case r == 1: // evict every expired session, maintaining the live count
		return th.Run(func(tx tm.Tx) error {
			now := tx.Load(s.clock)
			live := tx.Load(s.count)
			for i := 0; i < cfg.Slots; i++ {
				sl := s.slot(i)
				if tx.Load(sl) == 1 && tx.Load(sl+1) <= now {
					tx.Store(sl, 0)
					tx.Store(sl+1, 0)
					tx.Store(sl+2, 0)
					tx.Store(sl+3, 0)
					live--
				}
			}
			tx.Store(s.count, live)
			return nil
		})
	case r == 2: // read-only audit: count and checksums over one snapshot
		return th.RunReadOnly(func(tx tm.Tx) error {
			var live uint64
			for i := 0; i < cfg.Slots; i++ {
				sl := s.slot(i)
				if tx.Load(sl) != 1 {
					continue
				}
				live++
				if tx.Load(sl+3) != tx.Load(sl+2)^tx.Load(sl+1)^sessionSalt {
					report(fmt.Sprintf("session audit: slot %d checksum mismatch", i))
				}
			}
			if got := tx.Load(s.count); got != live {
				report(fmt.Sprintf("session audit: live count %d, want %d", got, live))
			}
			return nil
		})
	case r < 8: // create a session, or refresh its lease if the slot is live
		i := rng.Intn(cfg.Slots)
		v := uint64(1 + rng.Intn(1<<16))
		return th.Run(func(tx tm.Tx) error {
			sl := s.slot(i)
			exp := tx.Load(s.clock) + cfg.TTL
			if tx.Load(sl) != 1 { // create
				tx.Store(sl, 1)
				tx.Store(sl+2, v)
				tx.Store(s.count, tx.Load(s.count)+1)
			} // refresh keeps the stored value, extends the lease
			tx.Store(sl+1, exp)
			tx.Store(sl+3, tx.Load(sl+2)^exp^sessionSalt)
			return nil
		})
	default: // read one session, verifying its checksum
		i := rng.Intn(cfg.Slots)
		return th.RunReadOnly(func(tx tm.Tx) error {
			sl := s.slot(i)
			if tx.Load(sl) != 1 {
				return nil
			}
			if tx.Load(sl+3) != tx.Load(sl+2)^tx.Load(sl+1)^sessionSalt {
				report(fmt.Sprintf("session read: slot %d checksum mismatch", i))
			}
			return nil
		})
	}
}

func (s *sessionInstance) Check(sys tm.System) error {
	cfg := s.cfg
	snap := make([]uint64, (2+cfg.Slots)*mem.LineWords)
	sys.Memory().Snapshot(s.clock, snap)
	var live uint64
	for i := 0; i < cfg.Slots; i++ {
		w := (2 + i) * mem.LineWords
		if snap[w] == 0 {
			continue
		}
		if snap[w] != 1 {
			return fmt.Errorf("session: slot %d state %d, want 0 or 1", i, snap[w])
		}
		live++
		if snap[w+3] != snap[w+2]^snap[w+1]^sessionSalt {
			return fmt.Errorf("session: slot %d checksum %#x, want %#x",
				i, snap[w+3], snap[w+2]^snap[w+1]^sessionSalt)
		}
	}
	if got := snap[mem.LineWords]; got != live {
		return fmt.Errorf("session: live count %d, want %d", got, live)
	}
	return nil
}

// sessionScenario models a session cache: leases created and refreshed
// against a shared logical clock, evicted in sweeps once expired.
var sessionScenario = Scenario{
	Name:           "session",
	ExploreWorkers: 3,
	ExploreOps:     4,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &sessionInstance{cfg: SessionConfig{Slots: 4, TTL: 2}}
		case ScaleSoak:
			return &sessionInstance{cfg: SessionConfig{Slots: 64, TTL: 8}}
		default:
			return &sessionInstance{cfg: SessionConfig{}}
		}
	},
}
