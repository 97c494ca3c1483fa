package yada_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/stamptest"
	"rhnorec/internal/stamp/yada"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := yada.New(yada.Config{Regions: 128, Degree: 4, GoodQuality: 50})
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "yada", app, 4, 150, 0, 1); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRefinementDrainsQueue(t *testing.T) {
	app := yada.New(yada.Config{Regions: 32, Degree: 4, GoodQuality: 50})
	sys := stamptest.Systems(1 << 20)["serial"]()
	if err := conformance.Drive(sys, "yada", app, 1, 2000, 0, 1); err != nil {
		t.Error(err)
	}
	// After many single-threaded refinement steps the queue depth must be
	// bounded by the mesh size (no unbounded re-queueing).
	th := sys.NewThread()
	defer th.Close()
	depth, err := app.QueueDepth(th)
	if err != nil {
		t.Fatal(err)
	}
	if depth > 32 {
		t.Errorf("queue depth %d exceeds mesh size", depth)
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "yada", yada.New(yada.Config{}), 1, 20, 0, 1); err != nil {
		t.Error(err)
	}
}
