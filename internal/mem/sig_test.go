package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sigOf builds a signature over lines at the given width.
func sigOf(lines []Line, bits uint32) Signature {
	var g Signature
	for _, l := range lines {
		g.AddLine(l, bits)
	}
	return g
}

// TestQuickSigNoFalseNegatives is the one property group commit rests on:
// whenever a reader's footprint and a writer's footprint share a cache
// line, their signatures — built at the same width — must intersect. A miss
// here would let a holder drain a commit whose reads the group overwrote; a
// false positive only costs a restart, so it is not checked.
func TestQuickSigNoFalseNegatives(t *testing.T) {
	f := func(reads, writes []uint16, widthSel uint8) bool {
		bits := uint32(64 << (widthSel % 3)) // 64, 128, 256
		rl := make([]Line, len(reads))
		for i, v := range reads {
			rl[i] = Line(v)
		}
		wl := make([]Line, len(writes))
		for i, v := range writes {
			wl[i] = Line(v)
		}
		shared := false
		for _, r := range rl {
			for _, w := range wl {
				if r == w {
					shared = true
				}
			}
		}
		rsig := sigOf(rl, bits)
		wsig := sigOf(wl, bits)
		if shared && !rsig.Intersects(&wsig) {
			return false // false negative: forbidden
		}
		if !shared && len(rl) == 0 && !rsig.IsZero() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSigFalsePositiveRateBounded pins the filter's precision with a seeded
// workload: disjoint 4-line footprints must intersect rarely, the rate must
// shrink as the width grows, and at the full width it must stay under the
// analytic bound 1-(1-k/b)^k (~6.1% for k=4, b=256) with slack for seed
// variance.
func TestSigFalsePositiveRateBounded(t *testing.T) {
	const trials = 20000
	const k = 4
	rng := rand.New(rand.NewSource(7))
	rate := func(bits uint32) float64 {
		fp := 0
		for i := 0; i < trials; i++ {
			seen := make(map[Line]bool, 2*k)
			draw := func() []Line {
				ls := make([]Line, 0, k)
				for len(ls) < k {
					l := Line(rng.Intn(1 << 20))
					if !seen[l] {
						seen[l] = true
						ls = append(ls, l)
					}
				}
				return ls
			}
			rsig := sigOf(draw(), bits)
			wsig := sigOf(draw(), bits)
			if rsig.Intersects(&wsig) {
				fp++
			}
		}
		return float64(fp) / trials
	}
	r64, r128, r256 := rate(64), rate(128), rate(256)
	t.Logf("false-positive rates: 64b=%.4f 128b=%.4f 256b=%.4f", r64, r128, r256)
	if !(r64 > r128 && r128 > r256) {
		t.Errorf("rate must shrink with width: 64b=%.4f 128b=%.4f 256b=%.4f", r64, r128, r256)
	}
	for _, c := range []struct {
		bits  uint32
		rate  float64
		bound float64 // 1.25 * (1-(1-4/b)^4)
	}{
		{64, r64, 0.30}, {128, r128, 0.15}, {256, r256, 0.08},
	} {
		if c.rate > c.bound {
			t.Errorf("%db: false-positive rate %.4f exceeds bound %.4f", c.bits, c.rate, c.bound)
		}
	}
}
