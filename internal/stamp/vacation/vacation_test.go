package vacation_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/stamptest"
	"rhnorec/internal/stamp/vacation"
)

func TestConservationAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		for _, v := range []struct {
			name string
			cfg  vacation.Config
		}{{"vacation-low", vacation.Low()}, {"vacation-high", vacation.High()}} {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				if err := conformance.Drive(factory(), v.name, vacation.New(v.cfg), 4, 150, 1); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestSingleThreadDeterministicConservation(t *testing.T) {
	app := vacation.New(vacation.Config{Relations: 32, Queries: 3, QueryRange: 1.0, UserPct: 80})
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "vacation", app, 1, 500, 1); err != nil {
		t.Error(err)
	}
}

// TestZeroConfigDefaults: a zero Config falls back to Low, and the default
// app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "vacation", vacation.New(vacation.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
