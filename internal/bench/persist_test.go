package bench

// Tests of the durability-overhead wiring: Run must arm the redo log for
// exactly the algorithms whose Algo.Persist is set, durable-ack every
// operation, and keep the persist variants resolvable by name.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rhnorec/internal/core"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

func TestPersistVariantsResolve(t *testing.T) {
	a, ok := AlgoByName("rh-norec+persist")
	if !ok {
		t.Fatal(`AlgoByName("rh-norec+persist") not found`)
	}
	if !a.Persist {
		t.Fatal("rh-norec+persist resolves without persistence")
	}
	// The plain algorithms do not persist.
	if a, _ := AlgoByName("rh-norec"); a.Persist {
		t.Fatal("rh-norec resolves with persistence")
	}
}

// TestPersistRunArms: a point whose algorithm persists must have a
// persister attached to its memory before the system is constructed, and
// still complete ops while durable-acking each one; a point whose algorithm
// does not gets no persister.
func TestPersistRunArms(t *testing.T) {
	for _, persists := range []bool{true, false} {
		var attached bool
		res, err := Run(RunConfig{
			Workload: Hotspot(HotspotConfig{Lines: 2}),
			Algo: Algo{Name: "probe", Persist: persists,
				New: func(m *mem.Memory, d *htm.Device) tm.System {
					attached = m.Persisting()
					return core.New(m, d, tm.RetryPolicy{})
				}},
			Threads:     2,
			PointConfig: PointConfig{Duration: 20 * time.Millisecond, MemWords: 1 << 16},
		})
		if err != nil {
			t.Fatalf("persist %v: %v", persists, err)
		}
		if attached != persists {
			t.Fatalf("persist %v: persister attached at system construction = %v", persists, attached)
		}
		if res.Ops == 0 {
			t.Fatalf("persist %v: zero ops completed", persists)
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
	for _, want := range []string{"rh-norec+persist", "hotspot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}
