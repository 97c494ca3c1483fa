package intruder_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/intruder"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := intruder.New(intruder.Default())
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "intruder", app, 4, 200, 1); err != nil {
				t.Error(err)
			}
			if app.Completed() == 0 {
				t.Error("no flows completed")
			}
		})
	}
}

func TestSingleThreadDrainsInitialFlows(t *testing.T) {
	app := intruder.New(intruder.Config{InitialFlows: 16, MaxFragments: 4})
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "intruder", app, 1, 400, 1); err != nil {
		t.Error(err)
	}
	if app.Completed() < 16 {
		t.Errorf("completed %d flows, want at least the 16 initial ones", app.Completed())
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "intruder", intruder.New(intruder.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
