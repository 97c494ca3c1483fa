package kmeans_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/kmeans"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := kmeans.New(kmeans.Config{K: 8, Dims: 4, Points: 256})
		t.Run(name, func(t *testing.T) {
			if err := conformance.Drive(factory(), "kmeans", app, 4, 250, 1); err != nil {
				t.Error(err)
			}
			if app.Assignments() != 4*250 {
				t.Errorf("Assignments = %d, want %d", app.Assignments(), 4*250)
			}
		})
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "kmeans", kmeans.New(kmeans.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
