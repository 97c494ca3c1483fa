package hynorec_test

import (
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/hynorec"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

// The eager Hybrid NOrec's tests live with its implementation, in
// internal/core (TestConformanceFullSoftware and the hy-norec scenario
// tests); the fast path both share is exercised by either.

func TestConformanceLazyVariant(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		dev := htm.NewDevice(m, htm.Config{})
		dev.SetActiveThreads(4)
		return hynorec.New(m, dev, tm.RetryPolicy{})
	}, tmtest.Options{})
}

// TestConformanceLazyTinyCapacity forces constant fallbacks so the software
// slow path carries the whole conformance load.
func TestConformanceLazyTinyCapacity(t *testing.T) {
	tmtest.RunConformance(t, func(m *mem.Memory) tm.System {
		dev := htm.NewDevice(m, htm.Config{ReadCapacityLines: 2, WriteCapacityLines: 1})
		dev.SetActiveThreads(4)
		return hynorec.New(m, dev, tm.RetryPolicy{})
	}, tmtest.Options{})
}

func TestLazyName(t *testing.T) {
	m := mem.New(1024)
	sys := hynorec.New(m, htm.NewDevice(m, htm.Config{}), tm.RetryPolicy{})
	if sys.Name() != "hy-norec-lazy" {
		t.Errorf("Name = %q", sys.Name())
	}
	if sys.Memory() != m {
		t.Error("Memory accessor broken")
	}
}

func TestMismatchedDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for device over a different memory")
		}
	}()
	hynorec.New(mem.New(1024), htm.NewDevice(mem.New(1024), htm.Config{}), tm.RetryPolicy{})
}
