package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"slices"

	"rhnorec/internal/mem"
)

const (
	checkpointName = "checkpoint"
	segPrefix      = "seg-"
	// logName is the one file Log appends to. Recovery reads every file
	// named with segPrefix, so a directory written by a multi-file log still
	// recovers.
	logName = segPrefix + "000.log"

	// ckptMagic is "RHCKPT01" as a little-endian u64.
	ckptMagic = uint64(0x313054504b434852)
)

// RecoveryStats reports what Open's boot-time recovery did.
type RecoveryStats struct {
	// CheckpointSeq is the sequence the loaded checkpoint already covered
	// (zero when no checkpoint existed).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Commits is the number of complete sequence numbers replayed from the
	// log files on top of the checkpoint.
	Commits uint64 `json:"commits"`
	// Records is the number of records those commits carried: one each,
	// except where a multi-file log split a commit across its files.
	Records uint64 `json:"records"`
	// TornTails counts log files whose tail bytes failed to parse (short or
	// checksum-corrupt) and were discarded.
	TornTails int `json:"torn_tails"`
	// Dropped counts parsed records discarded because their sequence lies
	// beyond the last consistent cut (a later commit outran a lost earlier
	// one, or a commit split across files lost a sibling record).
	Dropped uint64 `json:"dropped"`
	// Seq is the recovered sequence frontier: the state equals executing
	// commits 1..Seq, and new appends continue from Seq+1.
	Seq uint64 `json:"seq"`
}

// Open runs crash recovery over the backend and returns a Log ready for
// appends. apply stores one recovered word (typically mem.Memory.StorePlain)
// and read returns a word's current value (mem.Memory.LoadPlain); both are
// only called during Open, single-threaded, over [Lo, Hi).
//
// The boot protocol makes repeated crash-restart cycles idempotent:
//
//  1. load the checkpoint (atomic-replace file: whole or absent), apply its
//     image, note its sequence base;
//  2. merge the log files by sequence, stopping each at its torn/corrupt
//     tail, and replay the longest consistent prefix above the base — a
//     sequence replays only if all its records survived;
//  3. write a fresh checkpoint of the recovered image, then truncate the
//     log files. Replay applies absolute values, so a crash between those
//     two steps just replays the same records onto the same image next boot.
func Open(opts Options, apply func(mem.Addr, uint64), read func(a mem.Addr) uint64) (*Log, RecoveryStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	b := opts.Backend
	stats, err := recoverState(b, opts.Lo, opts.Hi, apply)
	if err != nil {
		return nil, stats, err
	}
	if err := writeCheckpoint(b, opts.Lo, opts.Hi, stats.Seq, read); err != nil {
		return nil, stats, fmt.Errorf("persist: checkpoint: %w", err)
	}
	// Empty every log file that exists (a log written before the one-file
	// layout leaves seg-001.log and up) plus the one this log writes.
	names, err := b.List(segPrefix)
	if err != nil {
		return nil, stats, err
	}
	if !slices.Contains(names, logName) {
		names = append(names, logName)
	}
	for _, n := range names {
		if err := b.WriteAtomic(n, nil); err != nil {
			return nil, stats, err
		}
	}
	f, err := b.OpenAppend(logName)
	if err != nil {
		return nil, stats, err
	}
	l := &Log{
		lo:        opts.Lo,
		hi:        opts.Hi,
		syncEvery: opts.SyncEveryAppend,
		onEvent:   opts.OnEvent,
		seq:       stats.Seq,
		file:      f,
		recovery:  stats,
	}
	l.appended.Store(stats.Seq)
	l.durable.Store(stats.Seq)
	return l, stats, nil
}

// segRecord is one parsed record (pairs alias the scanned buffer).
type segRecord struct {
	seq       uint64
	nsegments uint32
	npairs    uint32
	pairs     []byte
}

// recoverState performs steps 1–2 of the boot protocol as one merge over the
// segments: a cursor per segment, and a walk over base+1, base+2, ... that
// replays a sequence as soon as the cursor heads carrying it form a whole
// commit. It allocates per segment, never per commit.
func recoverState(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (RecoveryStats, error) {
	var stats RecoveryStats
	base, err := loadCheckpoint(b, lo, hi, apply)
	if err != nil {
		return stats, err
	}
	stats.CheckpointSeq = base
	stats.Seq = base

	names, err := b.List(segPrefix)
	if err != nil {
		return stats, err
	}
	cursors := make([]segCursor, 0, len(names))
	for _, name := range names {
		data, err := b.ReadFile(name)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return stats, err
		}
		c := segCursor{data: data, base: base}
		c.next()
		cursors = append(cursors, c)
	}

	// The consistent cut: the longest run of sequences base+1, base+2, ...
	// where every sequence has all of its per-segment records. Every head
	// is at or above the sequence being walked and a segment's sequences
	// strictly increase, so the heads carrying it are all its records.
	cut := base
	for whole(cursors, cut+1) {
		cut++
		for i := range cursors {
			c := &cursors[i]
			if !c.ok || c.rec.seq != cut {
				continue
			}
			if err := replayRecord(c.rec, lo, hi, apply); err != nil {
				return stats, err
			}
			stats.Records++
			c.next()
		}
		stats.Commits++
	}
	for i := range cursors {
		c := &cursors[i]
		for c.ok {
			stats.Dropped++
			c.next()
		}
		if c.torn {
			stats.TornTails++
		}
	}
	stats.Seq = cut
	return stats, nil
}

// whole reports whether the cursor heads at seq form a whole commit: at
// least one, all agreeing on the segment count, and exactly that many.
func whole(cursors []segCursor, seq uint64) bool {
	n, want := uint32(0), uint32(0)
	for i := range cursors {
		r := &cursors[i].rec
		if !cursors[i].ok || r.seq != seq {
			continue
		}
		if n == 0 {
			want = r.nsegments
		} else if r.nsegments != want {
			return false
		}
		n++
	}
	return n > 0 && n == want
}

// segCursor walks one segment's records in file order. rec is the current
// record while ok; torn reports that the walk stopped at bytes that do not
// verify as the segment's next record.
type segCursor struct {
	data     []byte
	off      int
	base     uint64 // records at or below base are in the checkpoint: skipped
	rec      segRecord
	ok, torn bool
}

// next advances to the segment's next record above base. A record that is
// short, fails its checksum or length test, or whose seq is not above the
// previous record's ends the segment as torn. Log never writes the last
// kind: Append orders a segment's records under appendMu, syncLocked writes
// the swapped buffers under syncMu in swap order, and Open truncates every
// segment before the first append.
func (c *segCursor) next() {
	c.ok = false
	for c.off < len(c.data) {
		rest := c.data[c.off:]
		if len(rest) < 4 {
			break
		}
		size := binary.LittleEndian.Uint32(rest)
		if size < recHeadBytes+recSumBytes || uint64(size) > uint64(len(rest)-4) {
			break
		}
		payload := rest[4 : 4+size-recSumBytes]
		sum := binary.LittleEndian.Uint64(rest[4+size-recSumBytes : 4+size])
		if fnv64a(payload) != sum {
			break
		}
		npairs := binary.LittleEndian.Uint32(payload[24:])
		if uint64(recHeadBytes)+uint64(npairs)*recPairBytes+recSumBytes != uint64(size) {
			break
		}
		seq := binary.LittleEndian.Uint64(payload)
		if c.off > 0 && seq <= c.rec.seq {
			break
		}
		c.off += 4 + int(size)
		c.rec = segRecord{
			seq:       seq,
			nsegments: binary.LittleEndian.Uint32(payload[20:]),
			npairs:    npairs,
			pairs:     payload[recHeadBytes:],
		}
		if seq > c.base {
			c.ok = true
			return
		}
		// Already covered by the checkpoint: a crash between checkpoint
		// write and segment truncate leaves these behind.
	}
	c.torn = c.off < len(c.data)
}

func replayRecord(r segRecord, lo, hi mem.Addr, apply func(mem.Addr, uint64)) error {
	for i := uint32(0); i < r.npairs; i++ {
		p := r.pairs[i*recPairBytes:]
		a := mem.Addr(binary.LittleEndian.Uint64(p))
		if a < lo || a >= hi {
			return fmt.Errorf("persist: recovered address %d outside range [%d,%d) — log written under a different layout?", a, lo, hi)
		}
		apply(a, binary.LittleEndian.Uint64(p[8:]))
	}
	return nil
}

// Checkpoint layout (little-endian): magic, lo, hi, seq, (hi-lo) values,
// FNV-64a checksum of everything preceding. Written only via WriteAtomic.
func writeCheckpoint(b Backend, lo, hi mem.Addr, seq uint64, read func(mem.Addr) uint64) error {
	data := make([]byte, 0, 32+(int(hi)-int(lo))*8+8)
	data = binary.LittleEndian.AppendUint64(data, ckptMagic)
	data = binary.LittleEndian.AppendUint64(data, uint64(lo))
	data = binary.LittleEndian.AppendUint64(data, uint64(hi))
	data = binary.LittleEndian.AppendUint64(data, seq)
	for a := lo; a < hi; a++ {
		data = binary.LittleEndian.AppendUint64(data, read(a))
	}
	data = binary.LittleEndian.AppendUint64(data, fnv64a(data))
	return b.WriteAtomic(checkpointName, data)
}

// loadCheckpoint applies the checkpoint image (if one exists) and returns
// its sequence base. A checkpoint that exists but fails validation is an
// error, not a skip: WriteAtomic can't tear, so corruption means operator
// trouble (wrong directory, changed key-space size) that silent zeroing
// would turn into data loss.
func loadCheckpoint(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (uint64, error) {
	data, err := b.ReadFile(checkpointName)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	want := 32 + (int(hi)-int(lo))*8 + 8
	if len(data) != want {
		return 0, fmt.Errorf("persist: checkpoint is %d bytes, want %d — log written under a different layout?", len(data), want)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnv64a(body) != sum {
		return 0, fmt.Errorf("persist: checkpoint checksum mismatch")
	}
	if binary.LittleEndian.Uint64(body) != ckptMagic {
		return 0, fmt.Errorf("persist: bad checkpoint magic")
	}
	ckLo := mem.Addr(binary.LittleEndian.Uint64(body[8:]))
	ckHi := mem.Addr(binary.LittleEndian.Uint64(body[16:]))
	if ckLo != lo || ckHi != hi {
		return 0, fmt.Errorf("persist: checkpoint range [%d,%d) does not match configured [%d,%d)", ckLo, ckHi, lo, hi)
	}
	seq := binary.LittleEndian.Uint64(body[24:])
	vals := body[32:]
	for a := lo; a < hi; a++ {
		apply(a, binary.LittleEndian.Uint64(vals[(a-lo)*8:]))
	}
	return seq, nil
}
