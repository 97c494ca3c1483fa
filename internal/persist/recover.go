package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/bits"

	"rhnorec/internal/mem"
)

const (
	checkpointName = "checkpoint"
	// logName is the one file Log appends to. The name keeps the seg- prefix
	// that tools counting log bytes match on.
	logName = "seg-000.log"

	// ckptMagic is "RHCKPT05" as a little-endian u64. The checkpoint's magic
	// versions the whole directory: Open writes a checkpoint before the first
	// append, so every log this build reads sits beside one.
	ckptMagic = uint64(0x353054504b434852)
	// ckptMagicV4 is "RHCKPT04", the checkpoint of builds whose records and
	// checkpoints carried u64 addresses, a pair count and an 8-byte checksum.
	// Open refuses such a directory: its records would read as a torn tail.
	ckptMagicV4 = uint64(0x343054504b434852)
	// ckptMagicV3 is "RHCKPT03", the checkpoint of builds that wrote a dense
	// image of the whole range. Open refuses such a directory.
	ckptMagicV3 = uint64(0x333054504b434852)
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
	{ckptMagicV3, "an older build's dense image of the whole range"},
	{ckptMagicV4, "an older build's 24 + 16n-byte records"},
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
// and is only called during Open, single-threaded, over [Lo, Hi). read
// returns the value apply last stored (typically mem.Memory.LoadPlain); Open
// calls it once for each word apply stored, after the replay,
// single-threaded, to write the new checkpoint, and never for a word apply
// did not store.
//
// Open requires that [Lo, Hi) reads zero before it runs, as a freshly
// allocated arena does: a checkpoint holds only the words that are set, so
// the words no checkpoint pair or record covers are left as the memory holds
// them.
//
// The boot protocol makes repeated crash-restart cycles idempotent:
//
//  1. load the checkpoint (atomic-replace file: whole or absent), apply its
//     pairs, note its sequence base; a directory an older format wrote is
//     refused here, before anything is written;
//  2. read the log as one stream, skip records at or below the base, and
//     replay each record that carries the next sequence, up to the first
//     record that is torn, corrupt or out of sequence;
//  3. write a fresh checkpoint of the words steps 1–2 stored, reading each
//     back once, then truncate the log. Replay applies absolute values, so a
//     crash between those two steps just replays the same records onto the
//     same words next boot.
func Open(opts Options, apply func(mem.Addr, uint64), read func(a mem.Addr) uint64) (*Log, RecoveryStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	b := opts.Backend
	stats, stored, err := recoverState(b, opts.Lo, opts.Hi, apply)
	if err != nil {
		return nil, stats, err
	}
	if err := saveCheckpoint(b, stored, stats.Seq, read); err != nil {
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

// wordSet marks words of [lo, hi), one bit per word. Its bitmap is allocated
// on the first add, so a boot that stores nothing allocates nothing sized by
// the range.
type wordSet struct {
	lo, hi mem.Addr
	bits   []uint64
}

func (s *wordSet) add(a mem.Addr) {
	if s.bits == nil {
		s.bits = make([]uint64, (s.hi-s.lo+63)/64)
	}
	i := a - s.lo
	s.bits[i/64] |= 1 << (i % 64)
}

// count returns the number of words in the set.
func (s *wordSet) count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// recoverState performs steps 1–2 of the boot protocol: one pass over the
// log's pieces, allocating nothing per commit. A record that a piece
// boundary cuts is copied out, into one buffer reused from record to record,
// and parsed once its last byte arrives; every other record is parsed where
// the piece holds it. So a boot allocates for its largest cut record, never
// for the log's length. It returns the set of words apply stored, the
// checkpoint's and the log's alike. A record above the base replays only if
// its seq is exactly the frontier's successor. Log never writes any other
// kind: Append assigns sequences under appendMu, syncLocked writes the
// swapped buffers under syncMu in swap order, and Open truncates the log
// before the first append. So the first record that breaks the sequence is
// where the stream ends, like a torn one.
func recoverState(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (RecoveryStats, *wordSet, error) {
	var stats RecoveryStats
	stored := &wordSet{lo: lo, hi: hi}
	base, err := loadCheckpoint(b, stored, apply)
	if err != nil {
		return stats, nil, err
	}
	stats.CheckpointSeq = base
	stats.Seq = base

	var (
		cut       []byte // the bytes so far of a record a piece boundary cut
		torn      bool
		replayErr error
	)
	err = b.ReadPieces(logName, func(piece []byte) bool {
		for len(piece) > 0 {
			data := piece
			if len(cut) > 0 {
				// Complete the cut record: its size field first, then the
				// bytes that field declares. The copy grows as those bytes
				// arrive, never to the size the field claims, so a corrupt
				// size allocates by the bytes the log still holds.
				k := min(len(piece), recordWant(cut)-len(cut))
				cut = append(cut, piece[:k]...)
				piece = piece[k:]
				if len(cut) < recordWant(cut) {
					continue
				}
				data = cut
			}
			seq, pairs, n := parseRecord(data)
			if n == 0 && len(cut) == 0 && len(data) < recordWant(data) {
				cut = append(cut, data...) // the piece ends inside this record
				return true
			}
			if n == 0 || seq > base && seq != stats.Seq+1 {
				torn = true
				return false
			}
			if len(cut) > 0 {
				cut = cut[:0]
			} else {
				piece = piece[n:]
			}
			if seq <= base {
				// Already covered by the checkpoint: a crash between checkpoint
				// write and log truncate leaves these behind.
				continue
			}
			if replayErr = replayPairs(pairs, stored, apply); replayErr != nil {
				return false
			}
			stats.Commits++
			stats.Seq = seq
		}
		return true
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return stats, nil, err
	}
	if replayErr != nil {
		return stats, nil, replayErr
	}
	if torn || len(cut) > 0 {
		stats.TornTails = 1
	}
	return stats, stored, nil
}

// recordWant is how many bytes the record at the head of data spans, as far
// as its head tells: 4 until its size field is in, then 4 plus that size.
func recordWant(data []byte) int {
	if len(data) < 4 {
		return 4
	}
	return 4 + int(binary.LittleEndian.Uint32(data))
}

// parseRecord verifies the record at the head of data and returns its seq,
// its pair bytes and its length; n is zero when the bytes are short, fail the
// checksum or declare a size that is not 12 + 12n.
func parseRecord(data []byte) (seq uint64, pairs []byte, n int) {
	if len(data) < 4 {
		return 0, nil, 0
	}
	size := binary.LittleEndian.Uint32(data)
	if size < recFixedBytes || (size-recFixedBytes)%recPairBytes != 0 || uint64(size) > uint64(len(data)-4) {
		return 0, nil, 0
	}
	payload := data[4 : 4+size-recSumBytes]
	if checksum(payload) != binary.LittleEndian.Uint32(data[4+size-recSumBytes:]) {
		return 0, nil, 0
	}
	return binary.LittleEndian.Uint64(payload), payload[recSeqBytes:], 4 + int(size)
}

// replayPairs applies each pair, a checkpoint's or a record's, and adds its
// address to stored.
func replayPairs(pairs []byte, stored *wordSet, apply func(mem.Addr, uint64)) error {
	span := uint64(stored.hi - stored.lo)
	for ; len(pairs) > 0; pairs = pairs[recPairBytes:] {
		off, v := readPair(pairs)
		if uint64(off) >= span {
			return fmt.Errorf("persist: recovered offset %d outside range [%d,%d) — log written under a different layout?", off, stored.lo, stored.hi)
		}
		a := stored.lo + mem.Addr(off)
		apply(a, v)
		stored.add(a)
	}
	return nil
}

// Checkpoint layout (little-endian): magic, lo, hi, seq, then k pairs in the
// record's encoding — offsets from lo strictly ascending below hi - lo,
// values nonzero — then the CRC-32C of everything preceding. A checkpoint of
// k set words is 36 + 12k bytes; k follows from its length. Written only via
// WriteAtomic.
//
// saveCheckpoint replaces the checkpoint file with one at seq holding the
// words of stored that read nonzero, reading each once, in ascending order.
func saveCheckpoint(b Backend, stored *wordSet, seq uint64, read func(mem.Addr) uint64) error {
	buf := make([]byte, ckptHeadBytes, ckptHeadBytes+stored.count()*recPairBytes+recSumBytes)
	binary.LittleEndian.PutUint64(buf, ckptMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(stored.lo))
	binary.LittleEndian.PutUint64(buf[16:], uint64(stored.hi))
	binary.LittleEndian.PutUint64(buf[24:], seq)
	for i, w := range stored.bits {
		for ; w != 0; w &= w - 1 {
			off := i*64 + bits.TrailingZeros64(w)
			if v := read(stored.lo + mem.Addr(off)); v != 0 {
				buf = appendPair(buf, uint32(off), v)
			}
		}
	}
	return b.WriteAtomic(checkpointName, binary.LittleEndian.AppendUint32(buf, checksum(buf)))
}

// loadCheckpoint applies the checkpoint's pairs (if one exists), adds their
// addresses to stored and returns its sequence base. A checkpoint that
// exists but fails validation is an error, not a skip, and nothing of it is
// applied: WriteAtomic can't tear, so corruption means operator trouble
// (wrong directory, changed key-space size) that silent zeroing would turn
// into data loss. An older format's magic is refused first, so its
// differently laid out bytes never read as a checksum mismatch.
func loadCheckpoint(b Backend, stored *wordSet, apply func(mem.Addr, uint64)) (uint64, error) {
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
	if len(data) < ckptHeadBytes+recSumBytes {
		return 0, fmt.Errorf("persist: checkpoint is %d bytes, shorter than its %d-byte header and checksum", len(data), ckptHeadBytes+recSumBytes)
	}
	body, sum := data[:len(data)-recSumBytes], binary.LittleEndian.Uint32(data[len(data)-recSumBytes:])
	if checksum(body) != sum {
		return 0, fmt.Errorf("persist: checkpoint checksum mismatch")
	}
	if binary.LittleEndian.Uint64(body) != ckptMagic {
		return 0, fmt.Errorf("persist: bad checkpoint magic")
	}
	ckLo := mem.Addr(binary.LittleEndian.Uint64(body[8:]))
	ckHi := mem.Addr(binary.LittleEndian.Uint64(body[16:]))
	if ckLo != stored.lo || ckHi != stored.hi {
		return 0, fmt.Errorf("persist: checkpoint range [%d,%d) does not match configured [%d,%d)", ckLo, ckHi, stored.lo, stored.hi)
	}
	pairs := body[ckptHeadBytes:]
	if len(pairs)%recPairBytes != 0 {
		return 0, fmt.Errorf("persist: checkpoint holds %d pair bytes, not a multiple of %d", len(pairs), recPairBytes)
	}
	span := uint64(stored.hi - stored.lo)
	next := uint64(0) // the least offset the next pair may carry
	for i := 0; i < len(pairs); i += recPairBytes {
		off, v := readPair(pairs[i:])
		if uint64(off) < next || uint64(off) >= span || v == 0 {
			return 0, fmt.Errorf("persist: checkpoint pair %d (offset %d, value %d) breaks the layout: offsets ascend strictly below %d and values are nonzero",
				i/recPairBytes, off, v, span)
		}
		next = uint64(off) + 1
	}
	if err := replayPairs(pairs, stored, apply); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(body[24:]), nil
}
