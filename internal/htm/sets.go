package htm

import (
	"math/bits"

	"rhnorec/internal/mem"
)

// index is the associative structure behind the line log: an
// open-addressed, linear-probed table from a 64-bit key to a position,
// stamped per cell with the generation it was written in. A cell is live
// only while its stamp equals the table's, so reset is a single increment —
// no clearing, whatever the footprint was — and a transaction that logs a
// thousand words costs the next one-word transaction nothing. The table only
// ever grows, by doubling at half load; the device's line capacities bound
// the log, so growth stops and steady state allocates nothing.
type index struct {
	cells []cell // power-of-two length; nil until the first insert
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

// findOrAdd is the one insert: it returns the position stored under key,
// storing pos first if key was absent, and reports whether it was.
func (x *index) findOrAdd(key uint64, pos int32) (at int32, added bool) {
	if 2*(x.n+1) > len(x.cells) {
		x.grow()
	}
	mask := uint64(len(x.cells) - 1)
	for i := (key * fibMul) >> x.shift; ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.gen != x.gen {
			*c = cell{key: key, gen: x.gen, pos: pos}
			x.n++
			return pos, true
		}
		if c.key == key {
			return c.pos, false
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

// logLine is the record of one cache line the transaction touched, marked
// read or written the way a transactional L1 marks its lines: the words read
// from it, with the values logged for revalidation, and the words written to
// it, with each one's position in the log's write entries. Bit w of have
// says vals[w] is logged, bit w of wrote says pos[w] is set; a slot whose
// bit is clear holds whatever an earlier transaction left there and is never
// read. 112 bytes.
type logLine struct {
	line  mem.Line
	have  uint8
	wrote uint8
	vals  [mem.LineWords]uint64
	pos   [mem.LineWords]int32
}

// lineLog is the transaction's footprint, kept the way best-effort hardware
// tracks it — by cache line: one record per line in first-touch order,
// indexed by line, so a load or a store costs one index probe. Values read
// stay word-granular (only the words actually read are logged and
// revalidated, and a duplicate load is answered from the log); capacity is
// line-granular (the device bounds readLines and writeLines, each counted
// when a line's first read or first write bit turns on). The writes are
// insertion-ordered mem.WriteEntry values in first-write order, so Commit
// publishes entries as-is, no copy. Memory is one record per line touched,
// bounded by the device's capacities.
type lineLog struct {
	lines   []logLine
	idx     index
	entries []mem.WriteEntry

	words      int // words read, over all lines
	readLines  int // lines with a word read
	writeLines int // lines with a word written
}

func (s *lineLog) reset() {
	s.lines = s.lines[:0]
	s.entries = s.entries[:0]
	s.idx.reset()
	s.words, s.readLines, s.writeLines = 0, 0, 0
}

// len reports the words read.
func (s *lineLog) len() int { return s.words }

// lineCount reports the lines touched, including one a dying load opened
// and logged nothing in.
func (s *lineLog) lineCount() int { return len(s.lines) }

// open returns the record of line l, appending an empty one if l is new.
// The pointer is valid until the next open.
func (s *lineLog) open(l mem.Line) *logLine {
	n := len(s.lines)
	at, added := s.idx.findOrAdd(uint64(l), int32(n))
	if !added {
		return &s.lines[at]
	}
	// Extend in place where the array allows: appending a zero record would
	// clear and copy 112 bytes for every line a transaction opens. The stale
	// slots this leaves are gated by have and wrote.
	if n < cap(s.lines) {
		s.lines = s.lines[:n+1]
	} else {
		s.lines = append(s.lines, logLine{})
	}
	rl := &s.lines[n]
	rl.line, rl.have, rl.wrote = l, 0, 0
	return rl
}

// log records v as the value read from word w of rl's line and reports
// whether it is the line's first word read.
func (s *lineLog) log(rl *logLine, w uint, v uint64) bool {
	first := rl.have == 0
	rl.vals[w] = v
	rl.have |= 1 << w
	s.words++
	if first {
		s.readLines++
	}
	return first
}

// put buffers v as the value written to a, a word of rl's line, and reports
// whether it is the line's first word written.
func (s *lineLog) put(rl *logLine, a mem.Addr, v uint64) bool {
	w := uint(a) % mem.LineWords
	if rl.wrote&(1<<w) != 0 {
		s.entries[rl.pos[w]].Value = v
		return false
	}
	first := rl.wrote == 0
	rl.pos[w] = int32(len(s.entries))
	rl.wrote |= 1 << w
	s.entries = append(s.entries, mem.WriteEntry{Addr: a, Value: v})
	if first {
		s.writeLines++
	}
	return first
}

// stripeBits is a bitmap over the memory's stripe indices, one bit per
// stripe.
type stripeBits uint64

func (b *stripeBits) set(s int)     { *b |= 1 << s }
func (b stripeBits) has(s int) bool { return b&(1<<s) != 0 }

// markSet is the per-stripe watermark vector: for every stripe in the read
// footprint, the even clock value the stripe's logged reads were last
// validated at. The stripe index space is small and fixed, so the set is
// direct-mapped: get/set on the per-read hot path are O(1) array accesses
// gated by the footprint bitmap. Stale mark slots are never read: the bitmap
// gates them, so reset clears only the bitmap. Sweeps walk present lowest
// bit first, in ascending stripe order.
type markSet struct {
	marks   [mem.Stripes]uint64
	present stripeBits
}

func (s *markSet) reset() { s.present = 0 }

func (s *markSet) empty() bool { return s.present == 0 }

// get returns the watermark for stripe idx, if one is recorded.
func (s *markSet) get(idx int) (uint64, bool) {
	if !s.present.has(idx) {
		return 0, false
	}
	return s.marks[idx], true
}

// set records or updates the watermark for stripe idx.
func (s *markSet) set(idx int, mark uint64) {
	s.present.set(idx)
	s.marks[idx] = mark
}
