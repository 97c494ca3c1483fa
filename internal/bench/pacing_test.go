package bench_test

import (
	"testing"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/tmtest"
)

// TestHybridCloseReleasesHardwareContext: every hybrid's Close releases its
// hardware context as well as its reclamation slot, so once a thread has
// closed, a lone survivor's fast path stops pacing. A driver whose Close
// drops htx.Close keeps the device's live count up and fails here.
func TestHybridCloseReleasesHardwareContext(t *testing.T) {
	for _, name := range []string{"rh-norec", "hy-norec", "hy-norec-lazy", "lock-elision", "rh-tl2", "phased-tm"} {
		t.Run(name, func(t *testing.T) {
			algo, ok := bench.AlgoByName(name)
			if !ok {
				t.Fatalf("no algorithm %q", name)
			}
			m := mem.New(1<<16 + algo.MetaWords)
			tmtest.CheckClosePacing(t, algo.New(m, htm.NewDevice(m, htm.Config{})))
		})
	}
}
