package mem

// This file holds the compact footprint the flat-combining ring (combine.go)
// compares queued commits with: a bloom filter over cache lines. A lock
// holder drains a queued commit only when the commit's read signature is
// disjoint from everything the group has written so far, so the one
// property the filter must guarantee is *no false negatives* — a line both
// sides touched must intersect. That holds because both sides hash the same
// Line value with the same function into the same bit width, so a shared
// line sets a shared bit; a false positive only leaves a commit to restart
// that could have been combined.

// SigWords is the fixed word count of a Signature; the bloom width in bits
// is at most SigWords*64.
const SigWords = 4

// MaxSigBits is the largest supported bloom width.
const MaxSigBits = SigWords * 64

// Signature is a bloom filter over cache lines: one bit per line, hashed by
// a fixed mixer into a power-of-two bit width. The zero value is empty.
type Signature [SigWords]uint64

// sigMix is a splitmix64 finalizer: full-avalanche mixing so consecutive
// line numbers (the common footprint shape) spread across the filter.
func sigMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddLine sets l's bit under the given power-of-two bloom width in bits.
// Two signatures that will be intersected must be built at the same width,
// or a shared line could miss.
func (g *Signature) AddLine(l Line, bits uint32) {
	h := sigMix(uint64(l)) & uint64(bits-1)
	g[h>>6] |= 1 << (h & 63)
}

// Union ors o into g.
func (g *Signature) Union(o *Signature) {
	for i := range g {
		g[i] |= o[i]
	}
}

// Intersects reports whether g and o share any bit.
func (g *Signature) Intersects(o *Signature) bool {
	return g[0]&o[0]|g[1]&o[1]|g[2]&o[2]|g[3]&o[3] != 0
}

// IsZero reports whether g is empty.
func (g *Signature) IsZero() bool {
	return g[0]|g[1]|g[2]|g[3] == 0
}

// Reset clears g.
func (g *Signature) Reset() { *g = Signature{} }
