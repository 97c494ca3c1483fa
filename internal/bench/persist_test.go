package bench

// Tests of the durability-overhead wiring: Run must arm the redo log for
// exactly the algorithms whose Algo.Persist names a mode, durable-ack every
// operation, and keep the persist variants resolvable by name.

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
	// The plain algorithms do not persist.
	if a, _ := AlgoByName("rh-norec"); a.Persist != persist.ModeOff {
		t.Fatalf("rh-norec resolves with persist mode %v", a.Persist)
	}
}

// TestPersistRunArms: a point whose algorithm names a persist mode must have
// a persister attached to its memory before the system is constructed, and
// still complete ops while durable-acking each one; a point whose algorithm
// names none gets no persister.
func TestPersistRunArms(t *testing.T) {
	for _, mode := range []persist.Mode{persist.ModeGroup, persist.ModeSync, persist.ModeOff} {
		var attached bool
		res, err := Run(RunConfig{
			Workload: Hotspot(HotspotConfig{Lines: 2}),
			Algo: Algo{Name: "probe", Persist: mode,
				New: func(m *mem.Memory, d *htm.Device, p tm.RetryPolicy) tm.System {
					attached = m.Persisting()
					return core.New(m, d, p)
				}},
			Threads:     2,
			PointConfig: PointConfig{Duration: 20 * time.Millisecond, MemWords: 1 << 16},
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if attached != (mode != persist.ModeOff) {
			t.Fatalf("mode %v: persister attached at system construction = %v", mode, attached)
		}
		if res.Ops == 0 {
			t.Fatalf("mode %v: zero ops completed", mode)
		}
	}
}

func TestPersistFigureSmoke(t *testing.T) {
	e, ok := ExperimentByName("persist")
	if !ok {
		t.Fatal("no persist experiment")
	}
	var buf bytes.Buffer
	err := e.Run(&buf, FigureConfig{
		PointConfig: PointConfig{Duration: 15 * time.Millisecond},
		Threads:     []int{2},
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
