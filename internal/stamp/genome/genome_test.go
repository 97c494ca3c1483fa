package genome_test

import (
	"testing"

	"rhnorec/internal/conformance"
	"rhnorec/internal/stamp/genome"
	"rhnorec/internal/stamp/stamptest"
)

func TestIntegrityAcrossSystems(t *testing.T) {
	for name, factory := range stamptest.Systems(1 << 22) {
		app := genome.New(genome.Config{GenomeLength: 512, SegmentLength: 8})
		t.Run(name, func(t *testing.T) {
			sys := factory()
			if err := conformance.Drive(sys, "genome", app, 4, 200, 1); err != nil {
				t.Error(err)
			}
			th := sys.NewThread()
			defer th.Close()
			n, err := app.Segments(th)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Error("no segments discovered")
			}
		})
	}
}

func TestDeduplicationIsStable(t *testing.T) {
	// Processing the same genome exhaustively twice must not grow the map
	// beyond the distinct-position count.
	app := genome.New(genome.Config{GenomeLength: 128, SegmentLength: 8})
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "genome", app, 1, 2000, 1); err != nil {
		t.Error(err)
	}
	th := sys.NewThread()
	defer th.Close()
	n, err := app.Segments(th)
	if err != nil {
		t.Fatal(err)
	}
	if n > 128 {
		t.Errorf("segments = %d > %d positions (dedup failed)", n, 128)
	}
}

// TestZeroConfigDefaults: a zero Config falls back to the defaults, and the
// default app runs clean.
func TestZeroConfigDefaults(t *testing.T) {
	sys := stamptest.Systems(1 << 22)["serial"]()
	if err := conformance.Drive(sys, "genome", genome.New(genome.Config{}), 1, 20, 1); err != nil {
		t.Error(err)
	}
}
