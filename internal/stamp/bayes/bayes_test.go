package bayes_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/bayes"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := bayes.New(bayes.Config{Vars: 48})
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "bayes", app, 4, 200, 0, 1); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSingleThreadBuildsAcyclicGraph(t *testing.T) {
	app := bayes.New(bayes.Config{Vars: 24})
	sys := stamptest.Systems(1 << 20)["serial"]()
	if err := conformance.Drive(sys, "bayes", app, 1, 1500, 0, 1); err != nil {
		t.Error(err)
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "bayes", bayes.New(bayes.Config{}), 1, 20, 0, 1); err != nil {
		t.Error(err)
	}
}
