package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"

	"rhnorec/internal/mem"
)

const (
	checkpointName = "checkpoint"
	// logName is the one file Log appends to. The name keeps the seg- prefix
	// that tools counting log bytes match on.
	logName = "seg-000.log"

	// ckptMagic is "RHCKPT02" as a little-endian u64. The checkpoint's magic
	// versions the whole directory: Open writes a checkpoint before the first
	// append, so every log this build reads sits beside one.
	ckptMagic = uint64(0x323054504b434852)
	// ckptMagicV1 is "RHCKPT01", the checkpoint of builds whose log split
	// commits over up to eight files. Open refuses such a directory.
	ckptMagicV1 = uint64(0x313054504b434852)
)

// RecoveryStats reports what Open's boot-time recovery did.
type RecoveryStats struct {
	// CheckpointSeq is the sequence the loaded checkpoint already covered
	// (zero when no checkpoint existed).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Commits is the number of records replayed from the log on top of the
	// checkpoint, one per commit.
	Commits uint64 `json:"commits"`
	// TornTails is 1 when the log ended in bytes that do not verify as its
	// next record (short, checksum-corrupt, or out of sequence) and were
	// discarded, else 0.
	TornTails int `json:"torn_tails"`
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
//     image, note its sequence base; a directory an older format wrote is
//     refused here, before anything is written;
//  2. read the log as one stream, skip records at or below the base, and
//     replay each record that carries the next sequence, up to the first
//     record that is torn, corrupt or out of sequence;
//  3. write a fresh checkpoint of the recovered image, then truncate the
//     log. Replay applies absolute values, so a crash between those two
//     steps just replays the same records onto the same image next boot.
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
	if err := b.WriteAtomic(logName, nil); err != nil {
		return nil, stats, err
	}
	f, err := b.OpenAppend(logName)
	if err != nil {
		return nil, stats, err
	}
	l := &Log{
		lo:       opts.Lo,
		hi:       opts.Hi,
		onEvent:  opts.OnEvent,
		seq:      stats.Seq,
		file:     f,
		recovery: stats,
	}
	l.appended.Store(stats.Seq)
	l.durable.Store(stats.Seq)
	return l, stats, nil
}

// recoverState performs steps 1–2 of the boot protocol: one pass over the
// log's bytes, allocating nothing per commit. A record above the base
// replays only if its seq is exactly the frontier's successor. Log never
// writes any other kind: Append assigns sequences under appendMu,
// syncLocked writes the swapped buffers under syncMu in swap order, and
// Open truncates the log before the first append. So the first record that
// breaks the sequence is where the stream ends, like a torn one.
func recoverState(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (RecoveryStats, error) {
	var stats RecoveryStats
	base, err := loadCheckpoint(b, lo, hi, apply)
	if err != nil {
		return stats, err
	}
	stats.CheckpointSeq = base
	stats.Seq = base

	data, err := b.ReadFile(logName)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return stats, err
	}
	for len(data) > 0 {
		seq, pairs, n := parseRecord(data)
		if n == 0 || seq > base && seq != stats.Seq+1 {
			stats.TornTails = 1
			break
		}
		data = data[n:]
		if seq <= base {
			// Already covered by the checkpoint: a crash between checkpoint
			// write and log truncate leaves these behind.
			continue
		}
		if err := replayPairs(pairs, lo, hi, apply); err != nil {
			return stats, err
		}
		stats.Commits++
		stats.Seq = seq
	}
	return stats, nil
}

// parseRecord verifies the record at the head of data and returns its seq,
// its pair bytes and its length; n is zero when the bytes are short, fail the
// checksum or disagree with the record's own length fields.
func parseRecord(data []byte) (seq uint64, pairs []byte, n int) {
	if len(data) < 4 {
		return 0, nil, 0
	}
	size := binary.LittleEndian.Uint32(data)
	if size < recHeadBytes+recSumBytes || uint64(size) > uint64(len(data)-4) {
		return 0, nil, 0
	}
	payload := data[4 : 4+size-recSumBytes]
	if fnv64a(payload) != binary.LittleEndian.Uint64(data[4+size-recSumBytes:]) {
		return 0, nil, 0
	}
	npairs := binary.LittleEndian.Uint32(payload[8:])
	if uint64(recHeadBytes)+uint64(npairs)*recPairBytes+recSumBytes != uint64(size) {
		return 0, nil, 0
	}
	return binary.LittleEndian.Uint64(payload), payload[recHeadBytes:], 4 + int(size)
}

func replayPairs(pairs []byte, lo, hi mem.Addr, apply func(mem.Addr, uint64)) error {
	for ; len(pairs) > 0; pairs = pairs[recPairBytes:] {
		a := mem.Addr(binary.LittleEndian.Uint64(pairs))
		if a < lo || a >= hi {
			return fmt.Errorf("persist: recovered address %d outside range [%d,%d) — log written under a different layout?", a, lo, hi)
		}
		apply(a, binary.LittleEndian.Uint64(pairs[8:]))
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
	if len(data) >= 8 && binary.LittleEndian.Uint64(data) == ckptMagicV1 {
		return 0, fmt.Errorf("persist: checkpoint format RHCKPT01 (an older build's multi-file redo log) is not read by this build, which reads RHCKPT02; the directory is left untouched")
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
