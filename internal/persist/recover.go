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

	// ckptMagic is "RHCKPT03" as a little-endian u64. The checkpoint's magic
	// versions the whole directory: Open writes a checkpoint before the first
	// append, so every log this build reads sits beside one.
	ckptMagic = uint64(0x333054504b434852)
	// ckptMagicV2 is "RHCKPT02", the checkpoint of builds whose records and
	// checkpoints carried FNV-64a checksums. Open refuses such a directory.
	ckptMagicV2 = uint64(0x323054504b434852)
	// ckptMagicV1 is "RHCKPT01", the checkpoint of builds whose log split
	// commits over up to eight files. Open refuses such a directory.
	ckptMagicV1 = uint64(0x313054504b434852)

	// ckptHeadBytes is the checkpoint header: magic, lo, hi, seq.
	ckptHeadBytes = 32
)

// olderFormats are the checkpoint magics Open recognizes and refuses, each
// with what its build wrote differently.
var olderFormats = [...]struct {
	magic uint64
	what  string
}{
	{ckptMagicV1, "an older build's multi-file redo log"},
	{ckptMagicV2, "an older build's FNV-64a checksums"},
}

// magicName spells a checkpoint magic as the eight bytes it is on disk.
func magicName(m uint64) string {
	return string(binary.LittleEndian.AppendUint64(nil, m))
}

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
// and is only called during Open, single-threaded, over [Lo, Hi). read is
// not called: the new checkpoint is built from the image recovery decoded,
// so every word of the range is written once and never read back.
//
// Open requires that [Lo, Hi) reads zero before it runs, as a freshly
// allocated arena does: the words no checkpoint or record covers are
// checkpointed as zero, not as whatever the memory holds.
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
	stats, img, err := recoverState(b, opts.Lo, opts.Hi, apply)
	if err != nil {
		return nil, stats, err
	}
	if err := saveCheckpoint(b, img, stats.Seq); err != nil {
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
// log's bytes, allocating nothing per commit. It returns the recovered image
// laid out as a checkpoint body (newCheckpoint): every word apply stored, in
// place. A record above the base replays only if its seq is exactly the
// frontier's successor. Log never writes any other kind: Append assigns
// sequences under appendMu, syncLocked writes the swapped buffers under
// syncMu in swap order, and Open truncates the log before the first append.
// So the first record that breaks the sequence is where the stream ends,
// like a torn one.
func recoverState(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (RecoveryStats, []byte, error) {
	var stats RecoveryStats
	img := newCheckpoint(lo, hi)
	base, err := loadCheckpoint(b, lo, hi, img, apply)
	if err != nil {
		return stats, nil, err
	}
	stats.CheckpointSeq = base
	stats.Seq = base

	data, err := b.ReadFile(logName)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return stats, nil, err
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
		if err := replayPairs(pairs, lo, hi, img[ckptHeadBytes:], apply); err != nil {
			return stats, nil, err
		}
		stats.Commits++
		stats.Seq = seq
	}
	return stats, img, nil
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
	if checksum(payload) != binary.LittleEndian.Uint64(data[4+size-recSumBytes:]) {
		return 0, nil, 0
	}
	npairs := binary.LittleEndian.Uint32(payload[8:])
	if uint64(recHeadBytes)+uint64(npairs)*recPairBytes+recSumBytes != uint64(size) {
		return 0, nil, 0
	}
	return binary.LittleEndian.Uint64(payload), payload[recHeadBytes:], 4 + int(size)
}

// replayPairs applies each pair and stores its value into vals, the image's
// words of [lo, hi).
func replayPairs(pairs []byte, lo, hi mem.Addr, vals []byte, apply func(mem.Addr, uint64)) error {
	for ; len(pairs) > 0; pairs = pairs[recPairBytes:] {
		a := mem.Addr(binary.LittleEndian.Uint64(pairs))
		if a < lo || a >= hi {
			return fmt.Errorf("persist: recovered address %d outside range [%d,%d) — log written under a different layout?", a, lo, hi)
		}
		v := binary.LittleEndian.Uint64(pairs[8:])
		apply(a, v)
		binary.LittleEndian.PutUint64(vals[(a-lo)*8:], v)
	}
	return nil
}

// Checkpoint layout (little-endian): magic, lo, hi, seq, (hi-lo) values,
// then the CRC-32C of everything preceding, zero-extended to 8 bytes.
// Written only via WriteAtomic.
//
// newCheckpoint returns the body of an all-zero checkpoint of [lo, hi), its
// seq not yet set, with capacity for the checksum.
func newCheckpoint(lo, hi mem.Addr) []byte {
	n := ckptHeadBytes + int(hi-lo)*8
	img := make([]byte, n, n+recSumBytes)
	binary.LittleEndian.PutUint64(img, ckptMagic)
	binary.LittleEndian.PutUint64(img[8:], uint64(lo))
	binary.LittleEndian.PutUint64(img[16:], uint64(hi))
	return img
}

// saveCheckpoint stamps img (from newCheckpoint) with seq, appends its
// checksum and replaces the checkpoint file with it.
func saveCheckpoint(b Backend, img []byte, seq uint64) error {
	binary.LittleEndian.PutUint64(img[24:], seq)
	return b.WriteAtomic(checkpointName, binary.LittleEndian.AppendUint64(img, checksum(img)))
}

// loadCheckpoint applies the checkpoint image (if one exists), copies its
// words into img's and returns its sequence base. A checkpoint that exists
// but fails validation is an error, not a skip: WriteAtomic can't tear, so
// corruption means operator trouble (wrong directory, changed key-space
// size) that silent zeroing would turn into data loss. An older format's
// magic is refused first, so its differently summed bytes never read as a
// checksum mismatch.
func loadCheckpoint(b Backend, lo, hi mem.Addr, img []byte, apply func(mem.Addr, uint64)) (uint64, error) {
	data, err := b.ReadFile(checkpointName)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(data) >= 8 {
		m := binary.LittleEndian.Uint64(data)
		for _, f := range olderFormats {
			if m == f.magic {
				return 0, fmt.Errorf("persist: checkpoint format %s (%s) is not read by this build, which reads %s; the directory is left untouched",
					magicName(m), f.what, magicName(ckptMagic))
			}
		}
	}
	want := len(img) + recSumBytes
	if len(data) != want {
		return 0, fmt.Errorf("persist: checkpoint is %d bytes, want %d — log written under a different layout?", len(data), want)
	}
	body, sum := data[:len(data)-recSumBytes], binary.LittleEndian.Uint64(data[len(data)-recSumBytes:])
	if checksum(body) != sum {
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
	vals := body[ckptHeadBytes:]
	copy(img[ckptHeadBytes:], vals)
	for a := lo; a < hi; a++ {
		apply(a, binary.LittleEndian.Uint64(vals[(a-lo)*8:]))
	}
	return binary.LittleEndian.Uint64(body[24:]), nil
}
