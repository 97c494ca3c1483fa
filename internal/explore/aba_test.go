package explore

import (
	"errors"
	"testing"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/norec"
	"rhnorec/internal/phasedtm"
	"rhnorec/internal/tm"
)

// TestEagerRollbackABA pins the one interleaving in which an eager software
// writer's rollback could hand a reader a value no transaction committed:
//
//  1. the reader snapshots the clock (even) and parks before its load;
//  2. the writer locks the clock at its first write and stores 8 over the
//     committed 7 in place, then parks before its rollback;
//  3. the reader loads the dirty 8 and parks before its clock check — the
//     load and the check are adjacent yield points, so this leg is one step;
//  4. the writer user-aborts: the skeleton restores 7, AbortSlow releases
//     the clock;
//  5. the reader checks the clock and commits.
//
// Released advanced, the clock is no longer the reader's snapshot, so the
// check restarts it and the retry reads 7. Released at the snapshot (the
// ABA), the check passes and the reader commits the 8 the writer took back.
// The oracle is the value the reader returns: 7 is the only one ever
// committed.
//
// Each driver's software path is the eager NOrec view (tm.EagerTx, or core's
// full-software path for hy-norec); DisableFast keeps both threads on it.
// On core only a software reader can reach this window, and only against a
// full-software writer: fast-path and prefix readers subscribe to the global
// HTM lock, which goFullSoftware sets before the writer's first in-place
// store, and a postfix's stores never reach memory before it commits.
// hy-norec, with neither prefix nor postfix, runs exactly that pair.
func TestEagerRollbackABA(t *testing.T) {
	policy := tm.RetryPolicy{DisableFast: true}
	drivers := []struct {
		name string
		new  func(*mem.Memory, *htm.Device) tm.System
	}{
		{"norec", func(m *mem.Memory, _ *htm.Device) tm.System { return norec.New(m, norec.Eager) }},
		{"phased-tm", func(m *mem.Memory, d *htm.Device) tm.System { return phasedtm.New(m, d, policy) }},
		{"hy-norec", func(m *mem.Memory, d *htm.Device) tm.System { return core.NewHybridNOrec(m, d, policy) }},
	}
	errUser := errors.New("writer changed its mind")
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var (
				reader, writer  tm.Thread
				counter         mem.Addr
				entered, stored bool
				got             uint64
			)
			sc := Scenario{
				Name:         "eager-rollback-aba",
				FixedWorkers: 2,
				DefaultOps:   1,
				Build: func(env *Env, _ Config) ([]func(), func() error, error) {
					sys := d.new(env.M, env.Dev)
					setup := sys.NewThread()
					defer setup.Close()
					err := setup.Run(func(tx tm.Tx) error {
						counter = tx.Alloc(mem.LineWords)
						tx.Store(counter, 7)
						return nil
					})
					reader, writer = sys.NewThread(), sys.NewThread()
					read := func() {
						if err := reader.RunReadOnly(func(tx tm.Tx) error {
							entered = true
							got = tx.Load(counter)
							return nil
						}); err != nil {
							env.Violatef("reader: %v", err)
						}
						if got != 7 {
							env.Violatef("reader committed counter = %d, which no transaction committed (want 7)", got)
						}
					}
					write := func() {
						if err := writer.Run(func(tx tm.Tx) error {
							tx.Store(counter, 8)
							stored = true
							return errUser
						}); !errors.Is(err, errUser) {
							env.Violatef("writer: %v, want its own abort", err)
						}
					}
					return []func(){read, write}, nil, err
				},
			}
			steps := 0
			res, err := RunScenario(sc, Config{}, Steer(
				Leg{Worker: 0, Until: func() bool { return entered }},
				Leg{Worker: 1, Until: func() bool { return stored }},
				Leg{Worker: 0, Until: func() bool { steps++; return steps > 1 }},
				Leg{Worker: 1},
				Leg{Worker: 0},
			))
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			defer writer.Close()
			if res.Outcome != OutcomeOK {
				t.Fatalf("run ended %v: %s", res.Outcome, res.Violation)
			}
			r, w := reader.Stats(), writer.Stats()
			if r.Commits != 1 || r.STMRestarts+r.SlowPathRestarts != 1 || w.UserAborts != 1 {
				t.Errorf("reader: %d commits, %d restarts; writer: %d user aborts; want 1, 1 (the advanced clock sent the reader back), 1",
					r.Commits, r.STMRestarts+r.SlowPathRestarts, w.UserAborts)
			}
		})
	}
}
