package conformance

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// RateLimitConfig parameterizes the sliding-window rate limiter: per-client
// bucket rings admit at most Limit requests within any Window logical
// ticks. The cached window sum must always equal the bucket contents and
// never exceed the limit — checked in the admitting transaction itself,
// by read-only auditors, and over a snapshot at the end.
type RateLimitConfig struct {
	// Clients is the number of limited principals (one cache line each).
	Clients int
	// Window is the ring size in logical ticks (at most mem.LineWords-3,
	// so a client's whole state shares one line).
	Window int
	// Limit is the admission cap within a window.
	Limit uint64
}

func (c RateLimitConfig) withDefaults() RateLimitConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Window <= 0 || c.Window > mem.LineWords-3 {
		c.Window = 4
	}
	if c.Limit == 0 {
		c.Limit = 6
	}
	return c
}

// Client line layout: word 0 winStart (the tick the ring is rotated to),
// 1 sum (cached bucket total), 2 admitted (monotone tally), 3..3+Window-1
// the buckets. Line 0 of the region is the shared logical clock.
type ratelimitInstance struct {
	cfg   RateLimitConfig
	clock mem.Addr
}

func (s *ratelimitInstance) client(c int) mem.Addr {
	return s.clock + mem.Addr((1+c)*mem.LineWords)
}

func (s *ratelimitInstance) Setup(th tm.Thread) error {
	cfg := s.cfg.withDefaults()
	s.cfg = cfg
	return th.Run(func(tx tm.Tx) error {
		s.clock = tx.Alloc((1 + cfg.Clients) * mem.LineWords)
		return nil // zero state: clock 0, empty rings
	})
}

func (s *ratelimitInstance) NewWorker(th tm.Thread, seed int64, report Report) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error { return s.op(th, rng, report) }
}

// pick draws a client with a hot skew: 3/4 of requests land on the first
// quarter of the principals, so their lines carry write-write conflicts.
func (s *ratelimitInstance) pick(rng *rand.Rand) int {
	hot := s.cfg.Clients / 4
	if hot < 1 {
		hot = 1
	}
	if rng.Intn(4) != 0 {
		return rng.Intn(hot)
	}
	return rng.Intn(s.cfg.Clients)
}

// op draws one operation: 1/8 clock tick, 1/8 read-only audit over every
// client, 6/8 an admission attempt on a (hot-skewed) client.
func (s *ratelimitInstance) op(th tm.Thread, rng *rand.Rand, report Report) error {
	cfg := s.cfg
	switch rng.Intn(8) {
	case 0: // advance the shared clock
		return th.Run(func(tx tm.Tx) error {
			tx.Store(s.clock, tx.Load(s.clock)+1)
			return nil
		})
	case 1: // audit: every ring's cached sum matches its buckets and the cap
		return th.RunReadOnly(func(tx tm.Tx) error {
			for c := 0; c < cfg.Clients; c++ {
				cl := s.client(c)
				sum := tx.Load(cl + 1)
				var total uint64
				for b := 0; b < cfg.Window; b++ {
					total += tx.Load(cl + 3 + mem.Addr(b))
				}
				if total != sum {
					report(fmt.Sprintf("ratelimit audit: client %d sum %d, buckets total %d", c, sum, total))
				}
				if sum > cfg.Limit {
					report(fmt.Sprintf("ratelimit audit: client %d sum %d over limit %d", c, sum, cfg.Limit))
				}
			}
			return nil
		})
	default: // admission attempt: rotate the ring to now, then admit if under cap
		c := s.pick(rng)
		return th.Run(func(tx tm.Tx) error {
			cl := s.client(c)
			now := tx.Load(s.clock)
			ws := tx.Load(cl)
			if now > ws {
				if now-ws >= uint64(cfg.Window) {
					for b := 0; b < cfg.Window; b++ {
						tx.Store(cl+3+mem.Addr(b), 0)
					}
					tx.Store(cl+1, 0)
				} else {
					sum := tx.Load(cl + 1)
					for t := ws + 1; t <= now; t++ {
						b := cl + 3 + mem.Addr(t%uint64(cfg.Window))
						sum -= tx.Load(b)
						tx.Store(b, 0)
					}
					tx.Store(cl+1, sum)
				}
				tx.Store(cl, now)
			}
			sum := tx.Load(cl + 1)
			if sum < cfg.Limit {
				b := cl + 3 + mem.Addr(now%uint64(cfg.Window))
				tx.Store(b, tx.Load(b)+1)
				sum++
				tx.Store(cl+1, sum)
				tx.Store(cl+2, tx.Load(cl+2)+1)
			}
			// In-transaction invariant: the cached sum matches the buckets
			// (read-own-writes makes this see the admission above).
			var total uint64
			for b := 0; b < cfg.Window; b++ {
				total += tx.Load(cl + 3 + mem.Addr(b))
			}
			if total != sum {
				report(fmt.Sprintf("ratelimit: client %d sum %d, buckets total %d in-txn", c, sum, total))
			}
			if sum > cfg.Limit {
				report(fmt.Sprintf("ratelimit: client %d admitted past limit: sum %d > %d", c, sum, cfg.Limit))
			}
			return nil
		})
	}
}

func (s *ratelimitInstance) Check(sys tm.System) error {
	cfg := s.cfg
	snap := make([]uint64, (1+cfg.Clients)*mem.LineWords)
	sys.Memory().Snapshot(s.clock, snap)
	for c := 0; c < cfg.Clients; c++ {
		w := (1 + c) * mem.LineWords
		sum := snap[w+1]
		var total uint64
		for b := 0; b < cfg.Window; b++ {
			total += snap[w+3+b]
		}
		if total != sum {
			return fmt.Errorf("ratelimit: client %d sum %d, buckets total %d", c, sum, total)
		}
		if sum > cfg.Limit {
			return fmt.Errorf("ratelimit: client %d sum %d over limit %d", c, sum, cfg.Limit)
		}
	}
	return nil
}

// ratelimitScenario models an API edge's sliding-window limiter: short
// write transactions hammering a few hot lines, with a shared clock read
// on every admission.
var ratelimitScenario = Scenario{
	Name:           "ratelimit",
	ExploreWorkers: 3,
	ExploreOps:     4,
	New: func(scale Scale) Instance {
		switch scale {
		case ScaleExplore:
			return &ratelimitInstance{cfg: RateLimitConfig{Clients: 2, Window: 3, Limit: 3}}
		case ScaleSoak:
			return &ratelimitInstance{cfg: RateLimitConfig{Clients: 32, Limit: 12}}
		default:
			return &ratelimitInstance{cfg: RateLimitConfig{}}
		}
	},
}
