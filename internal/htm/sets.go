package htm

import (
	"math/bits"

	"rhnorec/internal/mem"
)

// index is the one associative structure behind the read log, the write
// buffer and the two line sets: an open-addressed, linear-probed table from
// a 64-bit key to a position, stamped per cell with the generation it was
// written in. A cell is live only while its stamp equals the table's, so
// reset is a single increment — no clearing, whatever the footprint was —
// and a transaction that logs a thousand words costs the next one-word
// transaction nothing. The table only ever grows, by doubling at half load;
// the device's line capacity bounds every set, so growth stops and steady
// state allocates nothing.
type index struct {
	cells []cell // power-of-two length; nil until the first add
	shift uint8  // 64 - log2(len(cells)): top hash bits select the home cell
	gen   uint32 // current generation; never 0 once cells exist
	n     int    // live cells in this generation
}

// cell is 16 bytes: four to a cache line.
type cell struct {
	key uint64
	gen uint32
	pos int32
}

const (
	indexMinCells = 16
	// fibMul is 2^64/phi: multiplying by it spreads consecutive keys (the
	// lines and words of one node) across the table.
	fibMul = 0x9E3779B97F4A7C15
)

// reset empties the index. When the 32-bit generation wraps, cells stamped
// four billion resets ago would read as live again, so that one reset
// clears the table.
func (x *index) reset() {
	x.n = 0
	if x.gen++; x.gen == 0 {
		clear(x.cells)
		x.gen = 1
	}
}

// find returns the position stored under key.
func (x *index) find(key uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.cells) - 1)
	for i := (key * fibMul) >> x.shift; ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.gen != x.gen {
			return 0, false
		}
		if c.key == key {
			return c.pos, true
		}
	}
}

// add stores pos under key unless key is already present, and reports
// whether it was new.
func (x *index) add(key uint64, pos int32) bool {
	if 2*(x.n+1) > len(x.cells) {
		x.grow()
	}
	mask := uint64(len(x.cells) - 1)
	for i := (key * fibMul) >> x.shift; ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.gen != x.gen {
			*c = cell{key: key, gen: x.gen, pos: pos}
			x.n++
			return true
		}
		if c.key == key {
			return false
		}
	}
}

// grow doubles the table and re-homes the live cells.
func (x *index) grow() {
	old := x.cells
	size := 2 * len(old)
	if size == 0 {
		size = indexMinCells
		if x.gen == 0 {
			x.gen = 1 // a zero index: fresh cells (stamp 0) must read dead
		}
	}
	x.cells = make([]cell, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, c := range old {
		if c.gen != x.gen {
			continue
		}
		i := (c.key * fibMul) >> x.shift
		for x.cells[i].gen == x.gen {
			i = (i + 1) & mask
		}
		x.cells[i] = c
	}
}

// readEntry value-logs one speculative read for revalidation.
type readEntry struct {
	addr mem.Addr
	val  uint64
}

// readSet is the deduplicated speculative read log: insertion-ordered
// (addr, value) pairs — the value log validation walks — indexed by address.
// Deduplication keeps validation O(distinct addresses) instead of O(dynamic
// reads): a transaction that re-reads a hot word a thousand times validates
// it once.
type readSet struct {
	entries []readEntry
	idx     index
}

func (s *readSet) reset() {
	s.entries = s.entries[:0]
	s.idx.reset()
}

func (s *readSet) len() int { return len(s.entries) }

// get returns the logged value for a, if a was read before.
func (s *readSet) get(a mem.Addr) (uint64, bool) {
	if i, ok := s.idx.find(uint64(a)); ok {
		return s.entries[i].val, true
	}
	return 0, false
}

// add logs a first read of a. The caller must have checked get(a) first:
// duplicate addresses must not be re-logged.
func (s *readSet) add(a mem.Addr, v uint64) {
	s.idx.add(uint64(a), int32(len(s.entries)))
	s.entries = append(s.entries, readEntry{a, v})
}

// writeSet is the speculative write buffer: insertion-ordered
// mem.WriteEntry values (so Commit publishes the slice as-is, no copy),
// indexed by address.
type writeSet struct {
	entries []mem.WriteEntry
	idx     index
}

func (s *writeSet) reset() {
	s.entries = s.entries[:0]
	s.idx.reset()
}

func (s *writeSet) len() int { return len(s.entries) }

// get returns the buffered value for a, if any.
func (s *writeSet) get(a mem.Addr) (uint64, bool) {
	if i, ok := s.idx.find(uint64(a)); ok {
		return s.entries[i].Value, true
	}
	return 0, false
}

// put buffers a write, reporting whether the address was new.
func (s *writeSet) put(a mem.Addr, v uint64) bool {
	if i, ok := s.idx.find(uint64(a)); ok {
		s.entries[i].Value = v
		return false
	}
	s.idx.add(uint64(a), int32(len(s.entries)))
	s.entries = append(s.entries, mem.WriteEntry{Addr: a, Value: v})
	return true
}

// lineSet counts the distinct cache lines of a footprint for the capacity
// model.
type lineSet struct{ idx index }

func (s *lineSet) reset() { s.idx.reset() }

// add inserts l, reporting whether it was new.
func (s *lineSet) add(l mem.Line) bool { return s.idx.add(uint64(l), 0) }

func (s *lineSet) count() int { return s.idx.n }

// stripeBits is a bitmap over the memory's stripe indices, one bit per live
// stripe: a single word at the default 64 stripes.
type stripeBits []uint64

func newStripeBits(stripes int) stripeBits { return make(stripeBits, (stripes+63)/64) }

func (b stripeBits) set(s int)      { b[s>>6] |= 1 << (uint(s) & 63) }
func (b stripeBits) has(s int) bool { return b[s>>6]&(1<<(uint(s)&63)) != 0 }

// markSet is the per-stripe watermark vector: for every stripe in the read
// footprint, the even clock value the stripe's logged reads were last
// validated at. The stripe index space is small and bounded, so the set is
// direct-mapped: get/set on the per-read hot path are O(1) slice accesses
// gated by the footprint bitmap. Stale mark slots are never read: the bitmap
// gates them, so reset clears only the bitmap. Sweeps walk present directly,
// word by word, in ascending stripe order.
type markSet struct {
	marks   []uint64
	present stripeBits
	n       int
}

func newMarkSet(stripes int) markSet {
	return markSet{marks: make([]uint64, stripes), present: newStripeBits(stripes)}
}

func (s *markSet) reset() {
	if s.n != 0 {
		clear(s.present)
		s.n = 0
	}
}

func (s *markSet) empty() bool { return s.n == 0 }

// get returns the watermark for stripe idx, if one is recorded.
func (s *markSet) get(idx int) (uint64, bool) {
	if !s.present.has(idx) {
		return 0, false
	}
	return s.marks[idx], true
}

// set records or updates the watermark for stripe idx.
func (s *markSet) set(idx int, mark uint64) {
	if !s.present.has(idx) {
		s.present.set(idx)
		s.n++
	}
	s.marks[idx] = mark
}
