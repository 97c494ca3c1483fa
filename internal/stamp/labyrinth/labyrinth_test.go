package labyrinth_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/labyrinth"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := labyrinth.New(labyrinth.Config{Width: 24, Height: 24, SnapshotGrid: true})
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "labyrinth", app, 4, 30, 1); err != nil {
				t.Error(err)
			}
			if app.Routed() == 0 {
				t.Error("no paths routed")
			}
		})
	}
}

func TestPathsAreDisjoint(t *testing.T) {
	app := labyrinth.New(labyrinth.Config{Width: 16, Height: 16, SnapshotGrid: false})
	sys := stamptest.Systems(1 << 20)["serial"]()
	if err := conformance.Drive(sys, "labyrinth", app, 1, 100, 1); err != nil {
		t.Error(err)
	}
	if app.Routed()+app.Failed() != 100 {
		t.Errorf("routed %d + failed %d != 100 ops", app.Routed(), app.Failed())
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "labyrinth", labyrinth.New(labyrinth.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
