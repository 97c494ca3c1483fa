package ssca2_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/ssca2"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := ssca2.New(ssca2.Config{Nodes: 256})
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "ssca2", app, 4, 250, 1); err != nil {
				t.Error(err)
			}
			if app.Edges() != 4*250 {
				t.Errorf("Edges = %d, want %d", app.Edges(), 4*250)
			}
		})
	}
}

func TestAdjacencySaturation(t *testing.T) {
	// With one node, the array fills and then slots get overwritten; the
	// invariant must hold throughout.
	app := ssca2.New(ssca2.Config{Nodes: 1})
	sys := stamptest.Systems(1 << 20)["serial"]()
	if err := conformance.Drive(sys, "ssca2", app, 1, 100, 1); err != nil {
		t.Error(err)
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "ssca2", ssca2.New(ssca2.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
