package bench

// Tests of the durability-overhead wiring: Run must arm the redo log for
// persist-pinned algorithms (and for the sweep-level mode), durable-ack
// every operation, and keep the persist variants resolvable by name.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/persist"
	"rhnorec/internal/tm"
)

func TestPersistVariantsResolve(t *testing.T) {
	for _, name := range []string{"rh-norec+persist", "rh-norec+persist-sync"} {
		a, ok := AlgoByName(name)
		if !ok {
			t.Fatalf("AlgoByName(%q) not found", name)
		}
		if a.Persist == persist.ModeOff {
			t.Fatalf("%s: persist mode %v, want an armed mode", name, a.Persist)
		}
	}
	// The plain algorithms must stay unpinned (sweep-level mode decides).
	if a, _ := AlgoByName("rh-norec"); a.Persist != persist.ModeOff {
		t.Fatalf("rh-norec resolves with pinned persist mode %v", a.Persist)
	}
}

// TestPersistRunArms: a persist-pinned point must have a persister attached
// to its memory before the system is constructed, and still complete ops
// while durable-acking each one.
func TestPersistRunArms(t *testing.T) {
	for _, mode := range []persist.Mode{persist.ModeGroup, persist.ModeSync} {
		var attached bool
		res, err := Run(RunConfig{
			Workload: Hotspot(HotspotConfig{Lines: 2})(),
			Algo: Algo{Name: "probe", Persist: mode,
				New: func(m *mem.Memory, d *htm.Device, p tm.RetryPolicy) tm.System {
					attached = m.Persisting()
					return core.New(m, d, p)
				}},
			Threads:  2,
			Duration: 20 * time.Millisecond,
			MemWords: 1 << 16,
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !attached {
			t.Fatalf("mode %v: no persister attached at system construction", mode)
		}
		if res.Ops == 0 {
			t.Fatalf("mode %v: zero ops completed", mode)
		}
	}
}

// TestPersistPolicyKnob: the sweep-level mode (RunConfig.Persist, the
// rhbench -persist flag) arms unpinned algorithms, and only it does.
func TestPersistPolicyKnob(t *testing.T) {
	var attached bool
	cfg := RunConfig{
		Algo: Algo{Name: "probe",
			New: func(m *mem.Memory, d *htm.Device, p tm.RetryPolicy) tm.System {
				attached = m.Persisting()
				return core.New(m, d, p)
			}},
		Threads:  1,
		Duration: 10 * time.Millisecond,
		MemWords: 1 << 16,
	}
	for _, mode := range []persist.Mode{persist.ModeGroup, persist.ModeOff} {
		cfg.Workload = Hotspot(HotspotConfig{Lines: 2})()
		cfg.Persist = mode
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if attached != (mode != persist.ModeOff) {
			t.Fatalf("RunConfig.Persist=%v: persister attached = %v", mode, attached)
		}
	}
}

func TestPersistFigureSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := PersistFigure(&buf, FigureConfig{
		Threads:  []int{2},
		Duration: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rh-norec+persist", "rh-norec+persist-sync", "hotspot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}
