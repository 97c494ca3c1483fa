package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rhnorec/internal/mem"
)

// ---- the model oracle ----

const (
	oracleLo = mem.Addr(8)
	oracleHi = oracleLo + 64*mem.LineWords
)

// crashImage is what a crash at one persist event leaves on disk, with the
// log's frontiers at that instant.
type crashImage struct {
	img               *MemBackend
	durable, appended uint64
}

// history is one seeded Log run on a MemBackend: the live backend, a crash
// image at every append and sync event, and every commit's write set (all
// in range, so commit i carries seq i+1).
type history struct {
	live    *MemBackend
	crashes []crashImage
	commits [][]mem.WriteEntry
}

// genHistory runs a Log over commits random write sets, taking a crash image
// at every append and sync and a group sync after about one commit in four.
func genHistory(t *testing.T, rng *rand.Rand, commits int) *history {
	t.Helper()
	h := &history{live: NewMemBackend()}
	var l *Log
	l, _, err := Open(Options{
		Backend: h.live, Lo: oracleLo, Hi: oracleHi,
		OnEvent: func(Event, uint64) {
			h.crashes = append(h.crashes, crashImage{h.live.CrashSnapshot(), l.Durable(), l.Appended()})
		},
	}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits; i++ {
		writes := make([]mem.WriteEntry, 1+rng.Intn(4))
		for j := range writes {
			writes[j] = mem.WriteEntry{Addr: oracleLo + mem.Addr(rng.Intn(int(oracleHi-oracleLo))), Value: rng.Uint64()}
		}
		l.Append(uint64(i), writes)
		h.commits = append(h.commits, writes)
		if rng.Intn(4) == 0 {
			if err := l.WaitDurable(l.Appended()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No Close: what the last group fsync did not reach stays off the disk.
	return h
}

// stateAt reads the memory image after the first s commits.
func (h *history) stateAt(s uint64) func(mem.Addr) uint64 {
	w := wordStore{}
	for _, writes := range h.commits[:s] {
		for _, e := range writes {
			w[e.Addr] = e.Value
		}
	}
	return w.read
}

// recoverModel recovers img and fails unless the recovered image is exactly
// the model's state after the first stats.Seq commits.
func (h *history) recoverModel(t *testing.T, label string, img Backend) RecoveryStats {
	t.Helper()
	w := wordStore{}
	stats, _, err := recoverState(img, oracleLo, oracleHi, w.apply)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := h.stateAt(stats.Seq)
	for a := oracleLo; a < oracleHi; a++ {
		if w[a] != want(a) {
			t.Fatalf("%s: recovered word %d = %d, want %d: the image is not commits 1..%d", label, a, w[a], want(a), stats.Seq)
		}
	}
	return stats
}

// TestRecoverMatchesOracle recovers seeded histories from the live image,
// every crash image, a truncated and a bit-flipped copy of the log, and a
// checkpoint laid over a log that still holds records on both sides of it.
// Each recovered image must equal the model — the in-memory state after the
// recovered number of commits — and a crash image must recover at least the
// durable frontier of its crash instant and no more than was appended.
func TestRecoverMatchesOracle(t *testing.T) {
	var torn, overCheckpoint int
	model := func(h *history, label string, img Backend) RecoveryStats {
		t.Helper()
		s := h.recoverModel(t, label, img)
		if s.TornTails > 0 {
			torn++
		}
		if s.CheckpointSeq > 0 && s.Commits > 0 {
			overCheckpoint++
		}
		return s
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genHistory(t, rng, 48)
		name := fmt.Sprintf("seed=%d", seed)
		full := model(h, name+"/live", h.live)
		for i, c := range h.crashes {
			label := fmt.Sprintf("%s/crash@%d", name, i+1)
			if s := model(h, label, c.img); s.Seq < c.durable || s.Seq > c.appended {
				t.Fatalf("%s: recovered seq %d outside [durable %d, appended %d]", label, s.Seq, c.durable, c.appended)
			}
		}
		data, err := h.live.ReadFile(logName)
		if err != nil {
			t.Fatal(err)
		}
		img := h.live.CrashSnapshot()
		img.WriteAtomic(logName, data[:rng.Intn(len(data))])
		model(h, name+"/truncate", img)

		flipped := append([]byte(nil), data...)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		img = h.live.CrashSnapshot()
		img.WriteAtomic(logName, flipped)
		model(h, name+"/bitflip", img)

		// A crash between Open's checkpoint write and its truncate: a
		// checkpoint at s over a log holding records on both sides.
		if full.Seq < 2 {
			t.Fatalf("%s: live image recovers only %d commits", name, full.Seq)
		}
		s := 1 + uint64(rng.Intn(int(full.Seq)-1))
		img = h.live.CrashSnapshot()
		if err := writeCheckpoint(img, oracleLo, oracleHi, s, h.stateAt(s)); err != nil {
			t.Fatal(err)
		}
		if got := model(h, fmt.Sprintf("%s/checkpoint@%d", name, s), img); got.Seq != full.Seq || got.Commits != full.Seq-s {
			t.Fatalf("%s: over a checkpoint at %d recovered %+v, want seq %d", name, s, got, full.Seq)
		}
	}
	// The sweep must reach the cases the reader could get wrong.
	if torn == 0 || overCheckpoint == 0 {
		t.Fatalf("sweep recovered %d torn and %d over-checkpoint images; want some of each", torn, overCheckpoint)
	}
}

// TestCheckpointIsRecoveredImage: the checkpoint Open writes holds exactly
// the words apply stored that read back nonzero, each read back once, at the
// recovered seq; read is never called on a word apply did not store. It
// opens every crash image, a truncated log and a checkpoint laid over a log
// of TestRecoverMatchesOracle's seeded histories, and a fresh directory,
// which must checkpoint no pairs at seq 0.
func TestCheckpointIsRecoveredImage(t *testing.T) {
	check := func(label string, img Backend) {
		t.Helper()
		w := wordStore{}
		reads := map[mem.Addr]int{}
		l, stats, err := Open(Options{Backend: img, Lo: oracleLo, Hi: oracleHi}, w.apply,
			func(a mem.Addr) uint64 { reads[a]++; return w[a] })
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer l.Close()
		for a := range reads {
			if _, ok := w[a]; !ok {
				t.Fatalf("%s: Open read word %d, which apply never stored", label, a)
			}
		}
		want := map[mem.Addr]uint64{}
		for a, v := range w {
			if reads[a] != 1 {
				t.Fatalf("%s: Open read stored word %d %d times, want once", label, a, reads[a])
			}
			if v != 0 {
				want[a] = v
			}
		}
		seq, pairs := checkpointPairs(t, img)
		if seq != stats.Seq {
			t.Fatalf("%s: checkpoint seq %d, recovered %d", label, seq, stats.Seq)
		}
		if len(pairs) != len(want) {
			t.Fatalf("%s: checkpoint holds %d pairs, apply stored %d nonzero words", label, len(pairs), len(want))
		}
		for _, p := range pairs {
			if want[p.Addr] != p.Value {
				t.Fatalf("%s: checkpoint word %d = %d, apply stored %d", label, p.Addr, p.Value, want[p.Addr])
			}
		}
		got := wordStore{}
		if seq, err := loadCheckpoint(img, &wordSet{lo: oracleLo, hi: oracleHi}, got.apply); err != nil || seq != stats.Seq {
			t.Fatalf("%s: the checkpoint Open wrote loads at seq %d: %v", label, seq, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: loading the checkpoint applied %d words, want %d", label, len(got), len(want))
		}
	}
	check("fresh", NewMemBackend())
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genHistory(t, rng, 48)
		name := fmt.Sprintf("seed=%d", seed)
		for i, c := range h.crashes {
			check(fmt.Sprintf("%s/crash@%d", name, i+1), c.img.CrashSnapshot())
		}
		data, err := h.live.ReadFile(logName)
		if err != nil {
			t.Fatal(err)
		}
		img := h.live.CrashSnapshot()
		img.WriteAtomic(logName, data[:rng.Intn(len(data))])
		check(name+"/truncate", img)

		full := h.recoverModel(t, name+"/live", h.live)
		s := 1 + uint64(rng.Intn(int(full.Seq)-1))
		img = h.live.CrashSnapshot()
		if err := writeCheckpoint(img, oracleLo, oracleHi, s, h.stateAt(s)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s/checkpoint@%d", name, s), img)
	}
}

// checkpointPairs decodes b's checkpoint field by field, apart from
// loadCheckpoint, and fails unless its size and checksum agree.
func checkpointPairs(t *testing.T, b Backend) (seq uint64, pairs []mem.WriteEntry) {
	t.Helper()
	data, err := b.ReadFile(checkpointName)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 36 || (len(data)-36)%12 != 0 {
		t.Fatalf("checkpoint is %d bytes, not 36 + 12k", len(data))
	}
	if got := string(data[:8]); got != "RHCKPT05" {
		t.Fatalf("checkpoint magic %q", got)
	}
	le := binary.LittleEndian
	if sum := le.Uint32(data[len(data)-4:]); sum != crc32c(data[:len(data)-4]) {
		t.Fatal("checkpoint checksum does not verify")
	}
	lo := mem.Addr(le.Uint64(data[8:]))
	for p := data[32 : len(data)-4]; len(p) > 0; p = p[12:] {
		pairs = append(pairs, mem.WriteEntry{Addr: lo + mem.Addr(le.Uint32(p)), Value: le.Uint64(p[4:])})
	}
	return le.Uint64(data[24:]), pairs
}

// ---- the stream's own contract ----

// encodePairs appends pairs in the on-disk layout, field by field apart
// from appendPair: each address as a u32 offset from lo, then its value.
func encodePairs(b []byte, lo mem.Addr, pairs []mem.WriteEntry) []byte {
	for _, e := range pairs {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Addr-lo))
		b = binary.LittleEndian.AppendUint64(b, e.Value)
	}
	return b
}

// encodeRecord appends one record in the on-disk layout, written out field
// by field apart from Log.Append.
func encodeRecord(b []byte, lo mem.Addr, seq uint64, pairs []mem.WriteEntry) []byte {
	return frameRecord(b, encodePairs(binary.LittleEndian.AppendUint64(nil, seq), lo, pairs))
}

// frameRecord appends payload (seq and pairs) as one record: its size field,
// the payload, then the payload's CRC-32C.
func frameRecord(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)+4))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32c(payload))
}

// writeCheckpoint writes a checkpoint at seq whose words of [lo, hi) are
// read's.
func writeCheckpoint(b Backend, lo, hi mem.Addr, seq uint64, read func(mem.Addr) uint64) error {
	all := &wordSet{lo: lo, hi: hi}
	for a := lo; a < hi; a++ {
		all.add(a)
	}
	return saveCheckpoint(b, all, seq, read)
}

// encodeCheckpoint lays out an RHCKPT05 checkpoint field by field, apart
// from saveCheckpoint, with whatever pairs it is given, then extra, and a
// checksum that verifies.
func encodeCheckpoint(lo, hi mem.Addr, seq uint64, pairs []mem.WriteEntry, extra ...byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, ckptMagic)
	for _, f := range []uint64{uint64(lo), uint64(hi), seq} {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	b = append(encodePairs(b, lo, pairs), extra...)
	return binary.LittleEndian.AppendUint32(b, crc32c(b))
}

func crc32c(p []byte) uint32 { return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) }

// ---- the layouts of older builds, kept to lay out their directories ----

// fnv64a is the FNV-64a checksum builds before RHCKPT03 wrote.
func fnv64a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// crc32c64 is the CRC-32C zero-extended to 8 bytes, as RHCKPT03 and
// RHCKPT04 builds wrote it.
func crc32c64(p []byte) uint64 { return uint64(crc32c(p)) }

// v4Record appends one record as builds before RHCKPT05 wrote it: size, seq,
// npairs, pairs of (u64 addr, u64 val), then sum of seq through the last
// pair in 8 bytes: 24 + 16n bytes.
func v4Record(b []byte, seq uint64, pairs []mem.WriteEntry, sum func([]byte) uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(20+16*len(pairs)))
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pairs)))
	for _, e := range pairs {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Addr))
		b = binary.LittleEndian.AppendUint64(b, e.Value)
	}
	return binary.LittleEndian.AppendUint64(b, sum(b[start:]))
}

// v4Checkpoint lays out an RHCKPT04 checkpoint: magic, lo, hi, seq, npairs,
// pairs of (u64 addr, u64 val), then their CRC-32C in 8 bytes: 48 + 16k
// bytes.
func v4Checkpoint(lo, hi mem.Addr, seq uint64, pairs []mem.WriteEntry) []byte {
	b := binary.LittleEndian.AppendUint64(nil, ckptMagicV4)
	for _, f := range []uint64{uint64(lo), uint64(hi), seq, uint64(len(pairs))} {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	for _, e := range pairs {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Addr))
		b = binary.LittleEndian.AppendUint64(b, e.Value)
	}
	return binary.LittleEndian.AppendUint64(b, crc32c64(b))
}

// denseCheckpoint lays out the checkpoint of the builds before RHCKPT04:
// magic, lo, hi, seq, every word of [lo, hi), then sum of all of that.
func denseCheckpoint(magic uint64, lo, hi mem.Addr, seq uint64, read func(mem.Addr) uint64, sum func([]byte) uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, magic)
	for _, f := range []uint64{uint64(lo), uint64(hi), seq} {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	for a := lo; a < hi; a++ {
		b = binary.LittleEndian.AppendUint64(b, read(a))
	}
	return binary.LittleEndian.AppendUint64(b, sum(b))
}

// TestAppendRecordBytes: one Append of n in-range pairs writes exactly
// 16 + 12n bytes, the record encodeRecord lays out; out-of-range pairs add
// nothing.
func TestAppendRecordBytes(t *testing.T) {
	b := NewMemBackend()
	l, _ := openStore(t, Options{Backend: b, Lo: 8, Hi: 1024}, wordStore{})
	defer l.Close()
	var want []byte
	for n := 1; n <= 5; n++ {
		var pairs []mem.WriteEntry
		for i := 0; i < n; i++ {
			pairs = append(pairs, mem.WriteEntry{Addr: mem.Addr(8 + i*mem.LineWords), Value: uint64(n*10 + i)})
		}
		l.Append(uint64(n), append([]mem.WriteEntry{{Addr: 2000, Value: 1}}, pairs...))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadFile(logName)
		if err != nil {
			t.Fatal(err)
		}
		if d := len(got) - len(want); d != 16+12*n {
			t.Fatalf("an append of %d pairs wrote %d bytes, want %d", n, d, 16+12*n)
		}
		want = encodeRecord(want, 8, uint64(n), pairs)
		if !bytes.Equal(got, want) {
			t.Fatalf("after %d appends the log differs from the record layout", n)
		}
	}
}

// TestSegmentSeqMustIncrease: a record above the checkpoint whose seq is not
// its predecessor's plus one ends the stream as torn, even though it
// verifies on its own, and nothing from it on replays.
func TestSegmentSeqMustIncrease(t *testing.T) {
	for _, c := range []struct {
		name string
		seqs [3]uint64
		want RecoveryStats
		w8   uint64
	}{
		// The second record repeats seq 1; the third (seq 2) is valid.
		{"repeat", [3]uint64{1, 1, 2}, RecoveryStats{Commits: 1, TornTails: 1, Seq: 1}, 101},
		// Seq 1 is missing, so the stream breaks at its head.
		{"decrease", [3]uint64{2, 1, 3}, RecoveryStats{TornTails: 1}, 0},
		// Seq 2 is missing after seq 1; seq 4 would follow seq 3.
		{"gap", [3]uint64{1, 3, 4}, RecoveryStats{Commits: 1, TornTails: 1, Seq: 1}, 101},
	} {
		t.Run(c.name, func(t *testing.T) {
			var seg []byte
			for i, s := range c.seqs {
				seg = encodeRecord(seg, 8, s, []mem.WriteEntry{{Addr: 8, Value: uint64(101 + i)}})
			}
			b := NewMemBackend()
			b.WriteAtomic(logName, seg)
			w := wordStore{}
			l, stats := openStore(t, Options{Backend: b, Lo: 8, Hi: 64}, w)
			defer l.Close()
			if stats != c.want {
				t.Fatalf("stats %+v, want %+v", stats, c.want)
			}
			if w[8] != c.w8 {
				t.Fatalf("w[8] = %d, want %d: nothing after the break may replay", w[8], c.w8)
			}
		})
	}
}

// TestRecordSizeMustFitPairs: a record whose size field is not 12 + 12n —
// its checksum verifying over every byte the size declares — ends the
// stream as torn, and nothing from it on replays.
func TestRecordSizeMustFitPairs(t *testing.T) {
	one := []mem.WriteEntry{{Addr: 8, Value: 101}}
	for extra := 1; extra < 12; extra++ {
		payload := encodePairs(binary.LittleEndian.AppendUint64(nil, 2), 8, []mem.WriteEntry{{Addr: 9, Value: 102}})
		seg := encodeRecord(nil, 8, 1, one)
		seg = frameRecord(seg, append(payload, make([]byte, extra)...))
		seg = encodeRecord(seg, 8, 3, []mem.WriteEntry{{Addr: 10, Value: 103}})
		b := NewMemBackend()
		b.WriteAtomic(logName, seg)
		w := wordStore{}
		l, stats := openStore(t, Options{Backend: b, Lo: 8, Hi: 64}, w)
		l.Close()
		if want := (RecoveryStats{Commits: 1, TornTails: 1, Seq: 1}); stats != want {
			t.Fatalf("a record of 16 + 12n + %d bytes: stats %+v, want %+v", extra, stats, want)
		}
		if len(w) != 1 || w[8] != 101 {
			t.Fatalf("a record of 16 + 12n + %d bytes: recovered %v, want only word 8", extra, w)
		}
	}
}

// refuseDir lays files out in a fresh directory and opens it over [lo, hi)
// for each hi. Every Open must be refused with an error naming format and
// this build's RHCKPT05, and must leave every file byte for byte as it was.
func refuseDir(t *testing.T, files map[string][]byte, format string, lo mem.Addr, his ...mem.Addr) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, hi := range his {
		l, _, err := Open(Options{Dir: dir, Lo: lo, Hi: hi}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
		if err == nil {
			l.Close()
			t.Fatalf("Hi=%d: Open accepted an %s directory", hi, format)
		}
		if !strings.Contains(err.Error(), format) || !strings.Contains(err.Error(), "RHCKPT05") {
			t.Fatalf("Hi=%d: error %q does not name the directory's format and this build's", hi, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("the directory holds %d entries after the refusal, want %d", len(entries), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refusal (err %v)", name, err)
		}
	}
}

func identity(a mem.Addr) uint64 { return uint64(a) }

// TestRefuseOlderFormats: a directory each older build wrote is refused at
// boot by its checkpoint's magic — not as a checksum mismatch, and its
// records not as a torn tail — at its own range and at another, and every
// file is left byte for byte. Each row lays out what its build wrote: the
// multi-file log's eight-file set, the FNV-64a build's sums, the dense
// RHCKPT03 image of the range beside records this build's predecessor
// would replay, and RHCKPT04's sparse checkpoint beside 24 + 16n-byte
// records.
func TestRefuseOlderFormats(t *testing.T) {
	const lo, hi = mem.Addr(8), mem.Addr(64)
	one := []mem.WriteEntry{{Addr: lo, Value: 7}}
	dirs := map[uint64]map[string][]byte{
		ckptMagicV1: {
			checkpointName: denseCheckpoint(ckptMagicV1, lo, hi, 3, identity, fnv64a),
			logName:        {1, 2, 3, 4, 5, 6, 7, 8},
			"seg-001.log":  {9, 10, 11},
		},
		ckptMagicV2: {
			checkpointName: denseCheckpoint(ckptMagicV2, lo, hi, 3, identity, fnv64a),
			logName:        v4Record(nil, 4, one, fnv64a),
		},
		ckptMagicV3: {
			checkpointName: denseCheckpoint(ckptMagicV3, lo, hi, 3, identity, crc32c64),
			logName:        v4Record(nil, 4, one, crc32c64),
		},
		ckptMagicV4: {
			checkpointName: v4Checkpoint(lo, hi, 3, []mem.WriteEntry{{Addr: lo, Value: 5}, {Addr: hi - 1, Value: 6}}),
			logName:        v4Record(v4Record(nil, 4, one, crc32c64), 5, []mem.WriteEntry{{Addr: lo + 1, Value: 8}}, crc32c64),
		},
	}
	if len(dirs) != len(olderFormats) {
		t.Fatalf("%d directories laid out for %d older formats", len(dirs), len(olderFormats))
	}
	for _, f := range olderFormats {
		files, ok := dirs[f.magic]
		if !ok {
			t.Fatalf("no directory laid out for %s", magicName(f.magic))
		}
		t.Run(magicName(f.magic), func(t *testing.T) { refuseDir(t, files, magicName(f.magic), lo, hi, hi+8) })
	}
}

// TestRefuseRangeWiderThanOffsets: a pair's offset is a u32, so Open refuses a range
// of 2^32 + 1 words before it reads or writes anything, and accepts one of
// 2^32.
func TestRefuseRangeWiderThanOffsets(t *testing.T) {
	const lo = mem.Addr(8)
	b := NewMemBackend()
	nop := func(mem.Addr, uint64) {}
	zero := func(mem.Addr) uint64 { return 0 }
	if l, _, err := Open(Options{Backend: b, Lo: lo, Hi: lo + 1<<32 + 1}, nop, zero); err == nil {
		l.Close()
		t.Fatal("Open accepted a range of 2^32 + 1 words")
	}
	if names, _ := b.List(""); len(names) != 0 {
		t.Fatalf("the refused Open wrote %v", names)
	}
	dir := filepath.Join(t.TempDir(), "data")
	if _, _, err := Open(Options{Dir: dir, Lo: lo, Hi: lo + 1<<32 + 1}, nop, zero); err == nil {
		t.Fatal("Open accepted a range of 2^32 + 1 words in a directory")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the refused Open made its directory (stat: %v)", err)
	}
	l, _, err := Open(Options{Backend: b, Lo: lo, Hi: lo + 1<<32}, nop, zero)
	if err != nil {
		t.Fatalf("Open refused a range of 2^32 words: %v", err)
	}
	l.Close()
}

// TestCheckpointSize: a checkpoint of k set words is 36 + 12k bytes, so an
// empty boot writes 36; a word that was set and then stored as zero is left
// out.
func TestCheckpointSize(t *testing.T) {
	b := NewMemBackend()
	opts := Options{Backend: b, Lo: 8, Hi: 8 + 64*mem.LineWords}
	size := func() int {
		t.Helper()
		data, err := b.ReadFile(checkpointName)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	reboot := func(writes ...mem.WriteEntry) {
		t.Helper()
		l, _ := openStore(t, opts, wordStore{})
		for i := range writes {
			l.Append(uint64(i), writes[i:i+1])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, _ = openStore(t, opts, wordStore{})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l, _ := openStore(t, opts, wordStore{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != 36 {
		t.Fatalf("an empty boot wrote a %d-byte checkpoint, want 36", got)
	}
	var writes []mem.WriteEntry
	for k := 1; k <= 5; k++ {
		writes = append(writes, mem.WriteEntry{Addr: mem.Addr(8 + k*mem.LineWords), Value: uint64(k)})
		reboot(writes...)
		if got := size(); got != 36+12*k {
			t.Fatalf("%d set words checkpoint in %d bytes, want %d", k, got, 36+12*k)
		}
	}
	reboot(mem.WriteEntry{Addr: writes[2].Addr, Value: 0}, mem.WriteEntry{Addr: writes[0].Addr, Value: 9})
	if got := size(); got != 36+12*4 {
		t.Fatalf("after one of 5 set words was stored as zero the checkpoint is %d bytes, want %d", got, 36+12*4)
	}
	w := wordStore{}
	l, _ = openStore(t, opts, w)
	defer l.Close()
	if _, ok := w[writes[2].Addr]; ok || w[writes[0].Addr] != 9 || len(w) != 4 {
		t.Fatalf("recovered %v, want the 4 nonzero words", w)
	}
}

// TestRefuseCorruptCheckpoint: a checkpoint whose checksum verifies but
// whose pairs break the layout, and a truncated one, are refused as
// validation errors before any of their pairs is applied.
func TestRefuseCorruptCheckpoint(t *testing.T) {
	const lo, hi = mem.Addr(8), mem.Addr(64)
	pairs := func(ws ...uint64) []mem.WriteEntry {
		var p []mem.WriteEntry
		for i := 0; i < len(ws); i += 2 {
			p = append(p, mem.WriteEntry{Addr: mem.Addr(ws[i]), Value: ws[i+1]})
		}
		return p
	}
	ok := encodeCheckpoint(lo, hi, 3, pairs(8, 1, 9, 2, 63, 3))
	cases := map[string][]byte{
		"unsorted":  encodeCheckpoint(lo, hi, 3, pairs(16, 1, 9, 2)),
		"duplicate": encodeCheckpoint(lo, hi, 3, pairs(9, 1, 9, 2)),
		// Address 7 is offset -1 from lo, which wraps to the u32's top.
		"below range": encodeCheckpoint(lo, hi, 3, pairs(7, 1, 9, 2)),
		"above range": encodeCheckpoint(lo, hi, 3, pairs(9, 1, 64, 2)),
		"zero value":  encodeCheckpoint(lo, hi, 3, pairs(9, 1, 10, 0)),
		// The pair bytes are not a multiple of 12: a value with no offset,
		// one stray byte, and half a pair (an offset with no value).
		"pair bytes 12k + 8": encodeCheckpoint(lo, hi, 3, pairs(9, 1), 2, 0, 0, 0, 0, 0, 0, 0),
		"pair bytes 12k + 1": encodeCheckpoint(lo, hi, 3, pairs(9, 1, 10, 2), 1),
		"half a pair":        encodeCheckpoint(lo, hi, 3, nil, 1, 0, 0, 0),
		"other range":        encodeCheckpoint(lo, hi+1, 3, pairs(9, 1)),
	}
	for cut := 0; cut < len(ok); cut += 7 {
		cases[fmt.Sprintf("truncated to %d", cut)] = ok[:cut]
	}
	for name, ckpt := range cases {
		b := NewMemBackend()
		b.WriteAtomic(checkpointName, ckpt)
		applied := 0
		l, _, err := Open(Options{Backend: b, Lo: lo, Hi: hi}, func(mem.Addr, uint64) { applied++ }, func(mem.Addr) uint64 { return 0 })
		if err == nil {
			l.Close()
			t.Fatalf("%s: Open accepted the checkpoint", name)
		}
		if applied != 0 {
			t.Fatalf("%s: Open applied %d words of a checkpoint it refused (%v)", name, applied, err)
		}
		if got, _ := b.ReadFile(checkpointName); !bytes.Equal(got, ckpt) {
			t.Fatalf("%s: the refused checkpoint was rewritten", name)
		}
	}
	b := NewMemBackend()
	b.WriteAtomic(checkpointName, ok)
	w := wordStore{}
	l, stats := openStore(t, Options{Backend: b, Lo: lo, Hi: hi}, w)
	defer l.Close()
	if stats.Seq != 3 || len(w) != 3 || w[8] != 1 || w[9] != 2 || w[63] != 3 {
		t.Fatalf("the well-formed checkpoint recovered %v at %+v", w, stats)
	}
}

// TestEmptyBootAllocsFlat: a boot with no checkpoint and an empty log
// allocates nothing sized by the range — as many bytes at 1 << 16 one-line
// keys as at 1 << 10, and under 4 KiB.
func TestEmptyBootAllocsFlat(t *testing.T) {
	bytesPerBoot := func(keys int) uint64 {
		const runs = 20
		opts := Options{Lo: mem.LineWords, Hi: mem.Addr((keys + 1) * mem.LineWords)}
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			backends := make([]*MemBackend, runs)
			for i := range backends {
				backends[i] = NewMemBackend()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, b := range backends {
				opts.Backend = b
				l, _, err := Open(opts, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
				if err != nil {
					t.Fatal(err)
				}
				l.Close()
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	small, large := bytesPerBoot(1<<10), bytesPerBoot(1<<16)
	if small != large || large >= 4096 {
		t.Fatalf("an empty boot allocates %d bytes at 1 << 10 keys and %d at 1 << 16; want the same, under 4 KiB", small, large)
	}
}

const (
	allocLo = mem.Addr(mem.LineWords)
	allocHi = allocLo + 1024*mem.LineWords
)

// oneWordLog returns a closed MemBackend log of n one-pair commits.
func oneWordLog(tb testing.TB, n int) *MemBackend {
	tb.Helper()
	b := NewMemBackend()
	l, _, err := Open(Options{Backend: b, Lo: allocLo, Hi: allocHi}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		tb.Fatal(err)
	}
	one := make([]mem.WriteEntry, 1)
	for i := 0; i < n; i++ {
		one[0] = mem.WriteEntry{Addr: allocLo + mem.Addr(i%1024)*mem.LineWords, Value: uint64(i)}
		l.Append(uint64(i), one)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return b
}

func openOneWordLog(tb testing.TB, b Backend, commits int) {
	tb.Helper()
	l, stats, err := Open(Options{Backend: b, Lo: allocLo, Hi: allocHi}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		tb.Fatal(err)
	}
	if stats.Commits != uint64(commits) {
		tb.Fatalf("recovered %d of %d commits", stats.Commits, commits)
	}
	l.Close()
}

// TestRecoverAllocsFlat: recovery allocates nothing per commit, so booting
// 20 000 commits costs as many allocations as booting 1 000.
func TestRecoverAllocsFlat(t *testing.T) {
	allocs := func(commits int) float64 {
		const runs = 3
		src := oneWordLog(t, commits)
		imgs := make([]*MemBackend, runs+1) // AllocsPerRun adds a warm-up run
		for i := range imgs {
			imgs[i] = src.CrashSnapshot()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			openOneWordLog(t, imgs[next], commits)
			next++
		})
	}
	if small, large := allocs(1000), allocs(20000); small != large {
		t.Fatalf("Open allocates %.0f times over 1 000 commits but %.0f over 20 000", small, large)
	}
}

func BenchmarkRecover20k(b *testing.B) {
	const commits = 20000
	src := oneWordLog(b, commits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		img := src.CrashSnapshot()
		b.StartTimer()
		openOneWordLog(b, img, commits)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*commits), "ns/commit")
}

// BenchmarkOpenEmpty prices a fresh boot at the service's default key range
// (1 << 16 one-line keys) over a freshly allocated arena: no checkpoint, an
// empty log, so the cost is writing a checkpoint of no pairs.
func BenchmarkOpenEmpty(b *testing.B) {
	const keys = 1 << 16
	m := mem.New(keys*mem.LineWords + 2*mem.LineWords)
	lo := m.AllocMark()
	opts := Options{Lo: lo, Hi: lo + keys*mem.LineWords}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Backend = NewMemBackend()
		l, _, err := Open(opts, m.StorePlain, m.LoadPlain)
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

// BenchmarkOpenRestart prices the restart of a full service arena: a
// checkpoint of 1 << 16 set words, one per key, under a log of 20 000
// one-pair commits. Each boot applies 65 536 + 20 000 words, reads back the
// 65 536 it stored and writes a 65 536-pair checkpoint. The arena is reused
// across iterations; every boot stores the same words with the same values,
// so each starts from the state a fresh arena would reach.
func BenchmarkOpenRestart(b *testing.B) {
	const keys, commits = 1 << 16, 20000
	m := mem.New(keys*mem.LineWords + 2*mem.LineWords)
	lo := m.AllocMark()
	opts := Options{Lo: lo, Hi: lo + keys*mem.LineWords}
	src := restartImage(b, opts.Lo, opts.Hi, keys, commits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts.Backend = src.CrashSnapshot()
		b.StartTimer()
		l, stats, err := Open(opts, m.StorePlain, m.LoadPlain)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Commits != commits {
			b.Fatalf("recovered %d of %d commits", stats.Commits, commits)
		}
		l.Close()
	}
}

// restartImage returns a MemBackend holding a full service arena's
// directory: a checkpoint at seq 1 that sets the first word of each of keys
// one-line keys in [lo, hi), under a log of commits one-pair commits.
func restartImage(b *testing.B, lo, hi mem.Addr, keys, commits int) *MemBackend {
	key := func(i int) mem.Addr { return lo + mem.Addr(i%keys)*mem.LineWords }
	src := NewMemBackend()
	if err := writeCheckpoint(src, lo, hi, 1, func(a mem.Addr) uint64 {
		if (a-lo)%mem.LineWords == 0 {
			return uint64(a)
		}
		return 0
	}); err != nil {
		b.Fatal(err)
	}
	var log []byte
	for i := 0; i < commits; i++ {
		log = encodeRecord(log, lo, uint64(2+i), []mem.WriteEntry{{Addr: key(i * 7), Value: uint64(i + 1)}})
	}
	src.WriteAtomic(logName, log)
	return src
}

// ---- MemBackend's chunked files ----

// TestMemFileChunks appends across chunk boundaries and holds ReadFile to a
// flat byte model and CrashSnapshot to the flat torn-image formula (synced
// bytes plus half the unsynced tail) at every step, then checks WriteAtomic
// replaces the file whole.
func TestMemFileChunks(t *testing.T) {
	b := NewMemBackend()
	f, err := b.OpenAppend("f")
	if err != nil {
		t.Fatal(err)
	}
	read := func(b *MemBackend) []byte {
		t.Helper()
		data, err := b.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(step string, model []byte, synced int) {
		t.Helper()
		if !bytes.Equal(read(b), model) {
			t.Fatalf("%s: ReadFile differs from the flat model (%d bytes)", step, len(model))
		}
		keep := synced + (len(model)-synced)/2
		if !bytes.Equal(read(b.CrashSnapshot()), model[:keep]) {
			t.Fatalf("%s: CrashSnapshot differs from the flat image of %d bytes", step, keep)
		}
	}
	var model []byte
	synced := 0
	check("empty", model, synced)
	rng := rand.New(rand.NewSource(1))
	for i, n := range []int{1, memChunkMin - 1, memChunkMin, memChunkMin + 1,
		memChunkMax - 1, memChunkMax, memChunkMax + 1, 3 * memChunkMax, 1} {
		p := make([]byte, n)
		rng.Read(p)
		if err := f.Append(p); err != nil {
			t.Fatal(err)
		}
		model = append(model, p...)
		check(fmt.Sprintf("append %d (%d bytes)", i, n), model, synced)
		if i%2 == 1 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			synced = len(model)
			check(fmt.Sprintf("sync %d", i), model, synced)
		}
	}

	repl := append(make([]byte, 0, memChunkMax+16), model[:memChunkMax+3]...)
	repl[0] ^= 0xff
	if err := b.WriteAtomic("f", repl); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), repl...)
	check("replace", want, len(want))
	g, err := b.OpenAppend("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	check("append after replace", append(want, 1, 2, 3), len(want))
	// WriteAtomic kept the caller's buffer: an append after it must open a
	// chunk of its own, not write into the buffer's spare capacity.
	if spare := repl[len(repl):cap(repl)]; len(spare) < 3 || !bytes.Equal(spare[:3], make([]byte, 3)) {
		t.Fatalf("the append after replace wrote into the caller's buffer (spare %d bytes)", len(spare))
	}
}
