package explore

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/htm"
	"rhnorec/internal/linearize"
	"rhnorec/internal/mem"
	"rhnorec/internal/persist"
	"rhnorec/internal/tm"
)

// Scenario is one explorable workload. Build runs single-threaded with the
// hooks inactive (its setup traffic is not scheduled); the returned bodies
// are the workers the scheduler serializes, and finish — run after all
// workers complete, hooks inactive again — is the end-of-run oracle.
//
// Scenario bodies must not recover panics they did not raise themselves:
// the scheduler's teardown unwinds parked workers with a private panic
// value, and the TM drivers' own recover/cleanup/re-panic discipline must
// reach the worker's top frame.
type Scenario struct {
	Name string
	// NeedsTM: Build requires Config.Algo / Env.Sys.
	NeedsTM bool
	// FixedWorkers pins the worker count (0 = configurable).
	FixedWorkers int
	DefaultWorkers,
	DefaultOps int
	// MemWords sizes the run's memory (0 = 1<<16).
	MemWords int
	// HTM shapes the run's device (capacities; zero = defaults). Its seed
	// source is always the harness's own.
	HTM   htm.Config
	Build func(env *Env, cfg Config) (bodies []func(), finish func() error, err error)
}

// Scenarios returns the registry, in presentation order: every workload in
// the shared conformance registry (internal/conformance) at its frozen
// explore scale, then the explorer-specific scenarios — the persistence
// crash plane, the linearizability oracle, the raw-device opacity demo and
// the over-capacity audit — whose oracles or devices need explorer machinery
// the generic adapter cannot express.
func Scenarios() []Scenario {
	scs := make([]Scenario, 0, len(conformance.Scenarios())+4)
	for _, sc := range conformance.Scenarios() {
		scs = append(scs, conformanceScenario(sc))
	}
	return append(scs, bankCrashScenario(nil), kvScenario, htmOpacityScenario, segmentsScenario(nil))
}

// conformanceScenario adapts a registry entry: the instance's seeded worker
// closure is looped cfg.Ops times per body, violations route to the
// explorer's oracle, and the end-of-run invariant check is the finish
// oracle. Worker i seeds with i+1, matching every other harness — and the
// recorded trace fixtures, which certify that this traffic is byte-for-byte
// the traffic the fixtures were recorded against.
func conformanceScenario(sc conformance.Scenario) Scenario {
	return Scenario{
		Name:           sc.Name,
		NeedsTM:        true,
		DefaultWorkers: sc.ExploreWorkers,
		DefaultOps:     sc.ExploreOps,
		MemWords:       sc.MemWords,
		Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
			inst := sc.New(conformance.ScaleExplore)
			setup := env.Sys.NewThread()
			err := inst.Setup(setup)
			setup.Close()
			if err != nil {
				return nil, nil, err
			}
			report := func(msg string) { env.Violatef("%s", msg) }
			bodies := make([]func(), cfg.Workers)
			for i := range bodies {
				i := i
				bodies[i] = func() {
					th := env.Sys.NewThread()
					defer th.Close()
					op := inst.NewWorker(th, int64(i)+1, report)
					for j := 0; j < cfg.Ops; j++ {
						if err := op(); err != nil {
							env.Violatef("%s worker %d: %v", sc.Name, i, err)
							return
						}
					}
				}
			}
			finish := func() error { return inst.Check(env.Sys) }
			return bodies, finish, nil
		},
	}
}

// ScenarioNames lists the registered scenario names.
func ScenarioNames() []string {
	var names []string
	for _, sc := range Scenarios() {
		names = append(names, sc.Name)
	}
	return names
}

// ScenarioByName finds a scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// bankCrashScenario explores the durable persistence plane (internal/persist)
// under chosen schedules: workers run bank transfers — each transfer also
// writes the worker's own stamp word in the same transaction — against a
// memory whose commits append to a redo log on an in-memory backend, taking
// durable acks (WaitDurable) every second op. A "crash@N" plan in Config.Bug
// snapshots the backend at the N-th persist event via MemBackend.CrashSnapshot
// (the deterministic torn-write image: synced bytes plus half of any unsynced
// tail), and the finish oracle recovers that image into a fresh state and
// audits the crash-consistency contract: the recovered bank conserves the
// total exactly (replay is a prefix of whole commits — no torn mix), and each
// worker's recovered stamp is at least its last durable-acked one (no lost
// durable-acked commit; aborted transactions never reach the log, so nothing
// can resurrect either). Every driver seals its software stores into the log
// at its commit point (tm.WriteLog), so the scenario runs on any algorithm;
// a run whose workers committed and logged nothing fails rather than passing
// with no image to audit. Persist events are counted, not scheduled: they
// are a pure function of the schedule, so runs stay replayable and crash
// points sweep with (seed × N). recovered, when non-nil, is told what each
// audited crash image replayed.
func bankCrashScenario(recovered func(persist.RecoveryStats)) Scenario {
	return Scenario{
		Name:           "bank-crash",
		NeedsTM:        true,
		DefaultWorkers: 3,
		DefaultOps:     4,
		Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
			const (
				accounts = 4
				initial  = 100
			)
			crashAt, _ := crashPlan(cfg.Bug)
			setup := env.Sys.NewThread()
			var base mem.Addr
			err := setup.Run(func(tx tm.Tx) error {
				base = tx.Alloc((accounts + cfg.Workers) * mem.LineWords)
				return nil
			})
			if err != nil {
				setup.Close()
				return nil, nil, err
			}
			acct := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
			stampAddr := func(w int) mem.Addr { return base + mem.Addr((accounts+w)*mem.LineWords) }
			lo, hi := base, base+mem.Addr((accounts+cfg.Workers)*mem.LineWords)

			backend := persist.NewMemBackend()
			acked := make([]uint64, cfg.Workers)
			var crash struct {
				snap   *persist.MemBackend
				acked  []uint64
				events int
				// setup is the event count when the workers start.
				setup int
			}
			log, _, err := persist.Open(persist.Options{
				Backend: backend, Lo: lo, Hi: hi,
				OnEvent: func(persist.Event, uint64) {
					// Workers are serialized by the scheduler, so this count (and
					// the acked copy) is exact, not racy.
					crash.events++
					if crashAt > 0 && crash.events == crashAt {
						crash.snap = backend.CrashSnapshot()
						crash.acked = append([]uint64(nil), acked...)
					}
				},
			}, env.M.StorePlain, env.M.LoadPlain)
			if err != nil {
				setup.Close()
				return nil, nil, err
			}
			env.M.SetPersister(log)
			// Fund the bank under the persister, then sync: every crash image
			// contains the funding commit, so any recovered prefix conserves.
			err = setup.Run(func(tx tm.Tx) error {
				for i := 0; i < accounts; i++ {
					tx.Store(acct(i), initial)
				}
				return nil
			})
			setup.Close()
			if err != nil {
				return nil, nil, err
			}
			if err := log.Sync(); err != nil {
				return nil, nil, err
			}
			crash.setup = crash.events

			bodies := make([]func(), cfg.Workers)
			for i := range bodies {
				i := i
				bodies[i] = func() {
					th := env.Sys.NewThread()
					defer th.Close()
					rng := rand.New(rand.NewSource(int64(i) + 1))
					for n := 1; n <= cfg.Ops; n++ {
						from, to := rng.Intn(accounts), rng.Intn(accounts)
						amt := uint64(1 + rng.Intn(10))
						if err := th.Run(func(tx tm.Tx) error {
							// Everything derives from in-transaction loads, so a
							// restart re-derives rather than compounding.
							f := tx.Load(acct(from))
							d := amt
							if d > f {
								d = f
							}
							tx.Store(acct(from), f-d)
							tx.Store(acct(to), tx.Load(acct(to))+d)
							tx.Store(stampAddr(i), uint64(n))
							return nil
						}); err != nil {
							env.Violatef("bank-crash worker %d: %v", i, err)
							return
						}
						if n%2 == 0 {
							if err := log.WaitDurable(log.Appended()); err != nil {
								env.Violatef("bank-crash worker %d: WaitDurable: %v", i, err)
								return
							}
							acked[i] = uint64(n)
						}
					}
				}
			}

			finish := func() error {
				const total = accounts * initial
				var live uint64
				for i := 0; i < accounts; i++ {
					live += env.M.LoadPlain(acct(i))
				}
				if live != total {
					return fmt.Errorf("bank-crash: live sum %d, want %d", live, total)
				}
				if crash.events == crash.setup {
					// Every transfer is a committed writer. A log that saw none of
					// them would make any crash plan pass with nothing to audit.
					return fmt.Errorf("bank-crash: %d transfers committed and none reached the redo log", cfg.Workers*cfg.Ops)
				}
				if crash.snap == nil {
					return nil // plan absent or crash point beyond this run's events
				}
				state := map[mem.Addr]uint64{}
				rlog, stats, err := persist.Open(persist.Options{Backend: crash.snap, Lo: lo, Hi: hi},
					func(a mem.Addr, v uint64) { state[a] = v },
					func(a mem.Addr) uint64 { return state[a] })
				if err != nil {
					return fmt.Errorf("bank-crash: recovery from crash image: %w", err)
				}
				rlog.Close()
				if recovered != nil {
					recovered(stats)
				}
				var sum uint64
				for i := 0; i < accounts; i++ {
					sum += state[acct(i)]
				}
				// The funding commit is sequence 1, so a non-empty recovered
				// prefix conserves the total exactly; an empty prefix (crash
				// before even the funding hit stable storage) recovers a zero
				// bank — consistent too, as long as nothing was durable-acked.
				if stats.Seq == 0 {
					if sum != 0 {
						return fmt.Errorf("bank-crash: empty replay but recovered sum %d (recovery %+v)", sum, stats)
					}
				} else if sum != total {
					return fmt.Errorf("bank-crash: recovered sum %d, want %d (recovery %+v)", sum, total, stats)
				}
				for w := 0; w < cfg.Workers; w++ {
					if got := state[stampAddr(w)]; got < crash.acked[w] {
						return fmt.Errorf("bank-crash: worker %d recovered stamp %d < durable-acked %d (recovery %+v)",
							w, got, crash.acked[w], stats)
					}
				}
				return nil
			}
			return bodies, finish, nil
		},
	}
}

// kvScenario drives a transactional key-value register map and judges the
// recorded history with the linearizability checker — the oracle adapter
// between the explorer and internal/linearize. Value 0 encodes "absent", so
// the memory's zero state matches the checker's empty-map model; workers
// therefore only write values ≥ 1.
var kvScenario = Scenario{
	Name:           "kv-linearize",
	NeedsTM:        true,
	DefaultWorkers: 3,
	DefaultOps:     4,
	Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
		// Size the key space so per-key subhistories stay under the
		// checker's 64-op bitmask bound even if every op hit one key pair.
		keys := 1 + cfg.Workers*cfg.Ops/32
		setup := env.Sys.NewThread()
		var base mem.Addr
		err := setup.Run(func(tx tm.Tx) error {
			base = tx.Alloc(keys * mem.LineWords)
			return nil
		})
		setup.Close()
		if err != nil {
			return nil, nil, err
		}
		keyAddr := func(k uint64) mem.Addr { return base + mem.Addr(int(k)*mem.LineWords) }
		rec := linearize.NewRecorder()
		bodies := make([]func(), cfg.Workers)
		for i := range bodies {
			i := i
			bodies[i] = func() {
				th := env.Sys.NewThread()
				defer th.Close()
				rng := rand.New(rand.NewSource(int64(i) + 1))
				for j := 0; j < cfg.Ops; j++ {
					k := uint64(rng.Intn(keys))
					switch rng.Intn(4) {
					case 0: // put
						v := uint64(1 + rng.Intn(100))
						rec.Do(linearize.Put, k, v, func() (uint64, bool) {
							var old uint64
							if err := th.Run(func(tx tm.Tx) error {
								old = tx.Load(keyAddr(k))
								tx.Store(keyAddr(k), v)
								return nil
							}); err != nil {
								env.Violatef("kv put: %v", err)
							}
							return old, old != 0
						})
					case 1: // delete
						rec.Do(linearize.Delete, k, 0, func() (uint64, bool) {
							var old uint64
							if err := th.Run(func(tx tm.Tx) error {
								old = tx.Load(keyAddr(k))
								tx.Store(keyAddr(k), 0)
								return nil
							}); err != nil {
								env.Violatef("kv delete: %v", err)
							}
							return old, old != 0
						})
					default: // get
						rec.Do(linearize.Get, k, 0, func() (uint64, bool) {
							var v uint64
							if err := th.RunReadOnly(func(tx tm.Tx) error {
								v = tx.Load(keyAddr(k))
								return nil
							}); err != nil {
								env.Violatef("kv get: %v", err)
							}
							return v, v != 0
						})
					}
				}
			}
		}
		finish := func() error {
			res, err := linearize.CheckErr(rec.History())
			if err != nil {
				return fmt.Errorf("kv oracle: %w", err)
			}
			if !res.Linearizable {
				return fmt.Errorf("kv history not linearizable: key %d (%d ops)", res.FailedKey, res.Ops)
			}
			return nil
		}
		return bodies, finish, nil
	},
}

// htmOpacityScenario runs the raw device (no TM driver): a reader asserts
// in-transaction that x+y is conserved while a blind writer republishes the
// pair. Against the correct protocol no schedule or fault can break it —
// the reader's stale log is caught by value re-validation. With the
// skip-validation planted bug it has a 12-step counterexample, which is the
// shrinking demo of docs/EXPLORE.md and the CI acceptance gate.
var htmOpacityScenario = Scenario{
	Name:         "htm-opacity",
	FixedWorkers: 2,
	DefaultOps:   1,
	Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
		const total = 1000
		tc := env.M.NewThreadCache()
		block := tc.Alloc(2 * mem.LineWords)
		x, y := block, block+mem.LineWords
		env.M.StorePlain(x, total*6/10)
		env.M.StorePlain(y, total*4/10)
		reader := func() {
			txn := env.Dev.NewTxn()
			for j := 0; j < cfg.Ops; j++ {
				for try := 0; try < 8; try++ {
					ab := txn.Attempt(func() {
						vx := txn.Load(x)
						vy := txn.Load(y)
						if vx+vy != total {
							env.Violatef("opacity: reader saw x=%d y=%d, sum %d != %d", vx, vy, vx+vy, total)
						}
					})
					if ab == nil {
						break
					}
				}
			}
		}
		writer := func() {
			txn := env.Dev.NewTxn()
			for j := 0; j < cfg.Ops; j++ {
				// Blind writes keep the writer abort-free under conflicts:
				// the round's split is computed, never read back.
				d := uint64((j + 1) * 100 % total)
				for try := 0; try < 8; try++ {
					ab := txn.Attempt(func() {
						txn.Store(x, total-d)
						txn.Store(y, d)
					})
					if ab == nil {
						break
					}
				}
			}
		}
		finish := func() error {
			if got := env.M.LoadPlain(x) + env.M.LoadPlain(y); got != total {
				return fmt.Errorf("htm-opacity: final sum %d, want %d", got, total)
			}
			return nil
		}
		return []func(){reader, writer}, finish, nil
	},
}

// segmentsScenario is the conformance bank (conformance.BankOp: random
// transfers, and read-only observers that assert the total inside the
// transaction) widened to 22 one-line accounts on a device of 8 read lines,
// where the registry scenarios' default 2 048 never send a transaction past
// its prefix. An observer cannot commit in hardware. On RH NOrec a worker's
// first one overflows its prefix and settles the budget near 6 reads; from
// its second on the first accounts come from the prefix and the rest from
// the read segments chained behind it (DESIGN.md §2 "Read segments"), so a
// transfer that commits in between and goes unnoticed shows as a wrong sum.
// Every other algorithm runs the same traffic on its own slow path. done,
// when non-nil, is handed each worker's counters as it finishes.
func segmentsScenario(done func(*tm.Stats)) Scenario {
	bank := conformance.BankConfig{Accounts: 22, Initial: 100, TransferMax: 10, ObserverEvery: 2}
	return Scenario{
		Name:           "segments",
		NeedsTM:        true,
		DefaultWorkers: 3,
		DefaultOps:     8,
		HTM:            htm.Config{ReadCapacityLines: 8, WriteCapacityLines: 4},
		Build: func(env *Env, cfg Config) ([]func(), func() error, error) {
			setup := env.Sys.NewThread()
			base, err := conformance.BankSetup(setup, bank)
			setup.Close()
			if err != nil {
				return nil, nil, err
			}
			report := func(msg string) { env.Violatef("%s", msg) }
			bodies := make([]func(), cfg.Workers)
			for i := range bodies {
				i := i
				bodies[i] = func() {
					th := env.Sys.NewThread()
					defer th.Close()
					if done != nil {
						defer done(th.Stats())
					}
					rng := rand.New(rand.NewSource(int64(i) + 1))
					for j := 0; j < cfg.Ops; j++ {
						if err := conformance.BankOp(th, bank, base, rng, report); err != nil {
							env.Violatef("segments worker %d: %v", i, err)
							return
						}
					}
				}
			}
			finish := func() error { return conformance.BankCheck(env.M, bank, base) }
			return bodies, finish, nil
		},
	}
}
