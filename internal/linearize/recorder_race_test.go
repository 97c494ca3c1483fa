package linearize_test

// Race-mode coverage for the recorder, from two directions: genuinely
// concurrent goroutines hammering Do against a known-linearizable reference
// (the checker must accept and -race must stay quiet on the recorder's
// clock/append paths), and histories recorded through the explore
// scheduler, which certifies the scheduler↔recorder integration both when
// the history is correct and when it provably is not.

import (
	"math/rand"
	"sync"
	"testing"

	"rhnorec/internal/explore"
	"rhnorec/internal/linearize"
)

// TestRecorderConcurrentLinearizable drives the recorder from truly parallel
// goroutines over a mutex-protected map — a linearizable implementation by
// construction — and requires the checker to accept the recorded history.
func TestRecorderConcurrentLinearizable(t *testing.T) {
	rec := linearize.NewRecorder()
	var mu sync.Mutex
	model := map[uint64]uint64{}

	const goroutines, opsEach, keys = 6, 10, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < opsEach; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					v := uint64(1 + rng.Intn(100))
					rec.Do(linearize.Put, k, v, func() (uint64, bool) {
						mu.Lock()
						defer mu.Unlock()
						old, ok := model[k]
						model[k] = v
						return old, ok
					})
				case 1:
					rec.Do(linearize.Delete, k, 0, func() (uint64, bool) {
						mu.Lock()
						defer mu.Unlock()
						old, ok := model[k]
						delete(model, k)
						return old, ok
					})
				default:
					rec.Do(linearize.Get, k, 0, func() (uint64, bool) {
						mu.Lock()
						defer mu.Unlock()
						v, ok := model[k]
						return v, ok
					})
				}
			}
		}(g)
	}
	wg.Wait()

	res, err := linearize.CheckErr(rec.History())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("mutex-map history rejected: key %d, %d ops", res.FailedKey, res.Ops)
	}
}

// TestRecorderThroughExploreScheduler records kv histories under scheduled
// adversarial interleavings (with injected faults) of every TM and requires
// the checker to accept each one.
func TestRecorderThroughExploreScheduler(t *testing.T) {
	for _, algo := range []string{"rh-norec", "hy-norec", "norec"} {
		cfg := explore.Config{Scenario: "kv-linearize", Algo: algo}
		found, runs, err := explore.ExplorePCT(cfg, 1, 8, 3, 256, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if found != nil {
			t.Fatalf("%s: linearizability oracle rejected a real-protocol run (seed %d after %d runs): %s",
				algo, found.Seed, runs.Runs(), found.Result.Violation)
		}
	}
}

// TestRecorderRejectsNonLinearizable seeds histories that violate map
// semantics in distinct ways; the checker must reject every one.
func TestRecorderRejectsNonLinearizable(t *testing.T) {
	cases := []struct {
		name string
		ops  []linearize.Op
	}{
		{
			// A read observes a value nobody ever wrote.
			name: "phantom-read",
			ops: []linearize.Op{
				{Kind: linearize.Put, Key: 1, Val: 10, OutOK: false, Invoke: 1, Return: 2},
				{Kind: linearize.Get, Key: 1, OutVal: 99, OutOK: true, Invoke: 3, Return: 4},
			},
		},
		{
			// A read observes a stale value after the overwrite returned.
			name: "stale-read",
			ops: []linearize.Op{
				{Kind: linearize.Put, Key: 1, Val: 10, OutOK: false, Invoke: 1, Return: 2},
				{Kind: linearize.Put, Key: 1, Val: 20, OutVal: 10, OutOK: true, Invoke: 3, Return: 4},
				{Kind: linearize.Get, Key: 1, OutVal: 10, OutOK: true, Invoke: 5, Return: 6},
			},
		},
		{
			// A deleted key is still observed present.
			name: "undead-delete",
			ops: []linearize.Op{
				{Kind: linearize.Put, Key: 1, Val: 10, OutOK: false, Invoke: 1, Return: 2},
				{Kind: linearize.Delete, Key: 1, OutVal: 10, OutOK: true, Invoke: 3, Return: 4},
				{Kind: linearize.Get, Key: 1, OutVal: 10, OutOK: true, Invoke: 5, Return: 6},
			},
		},
	}
	for _, tc := range cases {
		res, err := linearize.CheckErr(tc.ops)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Linearizable {
			t.Errorf("%s: accepted a non-linearizable history", tc.name)
		}
	}
}
