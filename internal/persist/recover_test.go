package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"reflect"
	"testing"

	"rhnorec/internal/mem"
)

// ---- the oracle: the map-based recovery the streaming merge replaced ----

// oracleRecoverState is the previous recoverState, verbatim: it parses every
// segment whole, groups records by sequence in a map, and walks the cut.
func oracleRecoverState(b Backend, lo, hi mem.Addr, apply func(mem.Addr, uint64)) (RecoveryStats, error) {
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
	groups := map[uint64][]segRecord{}
	for _, name := range names {
		data, err := b.ReadFile(name)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return stats, err
		}
		recs, torn := oracleScanSegment(data)
		if torn {
			stats.TornTails++
		}
		for _, r := range recs {
			if r.seq <= base {
				// Already covered by the checkpoint: a crash between
				// checkpoint write and segment truncate leaves these behind.
				continue
			}
			groups[r.seq] = append(groups[r.seq], r)
		}
	}

	// The consistent cut: the longest run of sequences base+1, base+2, ...
	// where every sequence has all of its per-segment records.
	cut := base
	for {
		g, ok := groups[cut+1]
		if !ok || !oracleComplete(g) {
			break
		}
		cut++
	}
	for seq := base + 1; seq <= cut; seq++ {
		for _, r := range groups[seq] {
			if err := replayRecord(r, lo, hi, apply); err != nil {
				return stats, err
			}
			stats.Records++
		}
		stats.Commits++
	}
	for seq, g := range groups {
		if seq > cut {
			stats.Dropped += uint64(len(g))
		}
	}
	stats.Seq = cut
	return stats, nil
}

// oracleComplete reports whether a sequence's record group is whole: every
// record agrees on the segment count and all of them are present.
func oracleComplete(g []segRecord) bool {
	want := g[0].nsegments
	if uint32(len(g)) != want {
		return false
	}
	for _, r := range g {
		if r.nsegments != want {
			return false
		}
	}
	return true
}

// oracleScanSegment parses records until the data runs out or stops
// verifying; torn reports whether unparseable tail bytes were discarded.
func oracleScanSegment(data []byte) (recs []segRecord, torn bool) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			return recs, true
		}
		size := binary.LittleEndian.Uint32(rest)
		if size < recHeadBytes+recSumBytes || uint64(size) > uint64(len(rest)-4) {
			return recs, true
		}
		payload := rest[4 : 4+size-recSumBytes]
		sum := binary.LittleEndian.Uint64(rest[4+size-recSumBytes : 4+size])
		if fnv64a(payload) != sum {
			return recs, true
		}
		npairs := binary.LittleEndian.Uint32(payload[24:])
		if uint64(recHeadBytes)+uint64(npairs)*recPairBytes+recSumBytes != uint64(size) {
			return recs, true
		}
		recs = append(recs, segRecord{
			seq:       binary.LittleEndian.Uint64(payload),
			nsegments: binary.LittleEndian.Uint32(payload[20:]),
			npairs:    npairs,
			pairs:     payload[recHeadBytes:],
		})
		off += 4 + int(size)
	}
	return recs, false
}

// ---- differential test ----

const (
	oracleLo = mem.Addr(8)
	oracleHi = oracleLo + 64*mem.LineWords
)

type applyCall struct {
	a mem.Addr
	v uint64
}

// recoverBoth recovers img with the merge and with the oracle and fails on
// any difference in the stats, the error or the sequence of apply calls.
func recoverBoth(t *testing.T, label string, img Backend) RecoveryStats {
	t.Helper()
	var got, want []applyCall
	gs, gerr := recoverState(img, oracleLo, oracleHi, func(a mem.Addr, v uint64) { got = append(got, applyCall{a, v}) })
	ws, werr := oracleRecoverState(img, oracleLo, oracleHi, func(a mem.Addr, v uint64) { want = append(want, applyCall{a, v}) })
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, oracle %v", label, gerr, werr)
	}
	if gs != ws {
		t.Fatalf("%s: stats %+v, oracle %+v", label, gs, ws)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d apply calls differ from the oracle's %d", label, len(got), len(want))
	}
	return gs
}

// history is one seeded Log run on a MemBackend: the live backend, a crash
// image at every append and sync event, and every commit's write set (all
// in range, so commit i carries seq i+1).
type history struct {
	live    *MemBackend
	crashes []*MemBackend
	commits [][]mem.WriteEntry
}

// genHistory runs a one-file Log when files is 1, and otherwise a legacyLog
// over that many files, taking a crash image at every append and sync. The
// one-file run also feeds a one-file legacyLog, whose bytes it must equal:
// the one-file log keeps the multi-file layout's records byte for byte.
func genHistory(t *testing.T, rng *rand.Rand, files, commits int) *history {
	t.Helper()
	h := &history{live: NewMemBackend()}
	crash := func() { h.crashes = append(h.crashes, h.live.CrashSnapshot()) }
	var (
		appendFn func(ticket uint64, writes []mem.WriteEntry)
		syncFn   func()
		twin     *MemBackend // the one-file legacyLog's backend
	)
	if files == 1 {
		l, _, err := Open(Options{
			Backend: h.live, Lo: oracleLo, Hi: oracleHi,
			OnEvent: func(Event, uint64) { crash() },
		}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		twin = NewMemBackend()
		p := newLegacyLog(t, twin, 1)
		appendFn = func(ticket uint64, writes []mem.WriteEntry) {
			l.Append(ticket, writes)
			p.append(ticket, writes)
		}
		syncFn = func() {
			if err := l.WaitDurable(l.Appended()); err != nil {
				t.Fatal(err)
			}
			p.sync(t)
		}
	} else {
		p := newLegacyLog(t, h.live, files)
		appendFn = func(ticket uint64, writes []mem.WriteEntry) {
			p.append(ticket, writes)
			crash()
		}
		syncFn = func() {
			p.sync(t)
			crash()
		}
	}
	for i := 0; i < commits; i++ {
		writes := make([]mem.WriteEntry, 1+rng.Intn(4))
		for j := range writes {
			writes[j] = mem.WriteEntry{Addr: oracleLo + mem.Addr(rng.Intn(int(oracleHi-oracleLo))), Value: rng.Uint64()}
		}
		appendFn(uint64(i), writes)
		h.commits = append(h.commits, writes)
		if rng.Intn(4) == 0 {
			syncFn()
		}
	}
	// No Close: what the last group fsync did not reach stays off the disk.
	if twin != nil {
		got, err := h.live.ReadFile(logName)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.ReadFile(logName)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("Log wrote %d bytes that differ from the legacy layout's %d", len(got), len(want))
		}
	}
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

// TestRecoverMatchesOracle recovers seeded histories — the one-file Log's
// and the legacy two- and eight-file layout's — from the live image, every
// crash image, a truncated and a bit-flipped copy of each file, and a
// checkpoint laid over files that still hold records on both sides of it,
// and requires the merge to do exactly what the oracle does. A legacy live
// image must also take the next boot's appends in seg-000.log alone.
func TestRecoverMatchesOracle(t *testing.T) {
	var torn, dropped, overCheckpoint int
	both := func(label string, img Backend) RecoveryStats {
		t.Helper()
		s := recoverBoth(t, label, img)
		if s.TornTails > 0 {
			torn++
		}
		if s.Dropped > 0 {
			dropped++
		}
		if s.CheckpointSeq > 0 && s.Commits > 0 {
			overCheckpoint++
		}
		return s
	}
	for _, files := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(files)))
			h := genHistory(t, rng, files, 48)
			name := fmt.Sprintf("files=%d/seed=%d", files, seed)
			full := both(name+"/live", h.live)
			if files > 1 {
				if _, s := bootAndAppend(t, h.live.CrashSnapshot(), oracleLo, oracleHi, mem.WriteEntry{Addr: oracleLo, Value: 1}); s.Seq != full.Seq {
					t.Fatalf("%s: boot recovered seq %d, the merge alone %d", name, s.Seq, full.Seq)
				}
			}
			for i, img := range h.crashes {
				both(fmt.Sprintf("%s/crash@%d", name, i+1), img)
			}
			segs, err := h.live.List(segPrefix)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				data, err := h.live.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) == 0 {
					continue
				}
				img := h.live.CrashSnapshot()
				img.WriteAtomic(seg, data[:rng.Intn(len(data))])
				both(name+"/truncate "+seg, img)

				flipped := append([]byte(nil), data...)
				flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
				img = h.live.CrashSnapshot()
				img.WriteAtomic(seg, flipped)
				both(name+"/bitflip "+seg, img)
			}
			// A crash between Open's checkpoint write and its truncate: a
			// checkpoint at s over files holding records on both sides.
			if full.Seq < 2 {
				t.Fatalf("%s: live image recovers only %d commits", name, full.Seq)
			}
			s := 1 + uint64(rng.Intn(int(full.Seq)-1))
			img := h.live.CrashSnapshot()
			if err := writeCheckpoint(img, oracleLo, oracleHi, s, h.stateAt(s)); err != nil {
				t.Fatal(err)
			}
			both(fmt.Sprintf("%s/checkpoint@%d", name, s), img)
		}
	}
	// The sweep must reach the cases the merge could get wrong.
	if torn == 0 || dropped == 0 || overCheckpoint == 0 {
		t.Fatalf("sweep recovered %d torn, %d dropping and %d over-checkpoint images; want some of each", torn, dropped, overCheckpoint)
	}
}

// ---- the merge's own contract ----

// encodeRecord appends one record in the on-disk layout, written out field
// by field apart from Log.Append: segment is the index of the file holding
// it and nsegments the number of records its commit wrote.
func encodeRecord(b []byte, seq, ticket uint64, segment, nsegments uint32, pairs []mem.WriteEntry) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(recHeadBytes+len(pairs)*recPairBytes+recSumBytes))
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, ticket)
	b = binary.LittleEndian.AppendUint32(b, segment)
	b = binary.LittleEndian.AppendUint32(b, nsegments)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pairs)))
	for _, e := range pairs {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Addr))
		b = binary.LittleEndian.AppendUint64(b, e.Value)
	}
	return binary.LittleEndian.AppendUint64(b, fnv64a(b[start:]))
}

func segName(s int) string { return fmt.Sprintf("%s%03d.log", segPrefix, s) }

// legacyLog writes the multi-file layout of the log before it had one file:
// a commit's pairs split over k files seg-000.log … by line % k, one record
// per file the commit touched, each carrying its file index and how many
// records the commit wrote. Records buffer per file until sync, which writes
// and fsyncs every dirty file in index order, as that log's group sync did.
// With k = 1 it writes the one-file layout.
type legacyLog struct {
	seq   uint64
	files []File
	bufs  [][]byte
}

func newLegacyLog(tb testing.TB, b Backend, k int) *legacyLog {
	tb.Helper()
	p := &legacyLog{files: make([]File, k), bufs: make([][]byte, k)}
	for s := range p.files {
		f, err := b.OpenAppend(segName(s))
		if err != nil {
			tb.Fatal(err)
		}
		p.files[s] = f
	}
	return p
}

func (p *legacyLog) fileOf(a mem.Addr) int {
	return int(uint64(a) / mem.LineWords % uint64(len(p.files)))
}

func (p *legacyLog) append(ticket uint64, writes []mem.WriteEntry) {
	p.seq++
	per := make([][]mem.WriteEntry, len(p.files))
	n := uint32(0)
	for _, e := range writes {
		s := p.fileOf(e.Addr)
		if per[s] == nil {
			n++
		}
		per[s] = append(per[s], e)
	}
	for s, pairs := range per {
		if pairs != nil {
			p.bufs[s] = encodeRecord(p.bufs[s], p.seq, ticket, uint32(s), n, pairs)
		}
	}
}

func (p *legacyLog) sync(tb testing.TB) {
	tb.Helper()
	for s, buf := range p.bufs {
		if len(buf) == 0 {
			continue
		}
		if err := p.files[s].Append(buf); err != nil {
			tb.Fatal(err)
		}
		if err := p.files[s].Sync(); err != nil {
			tb.Fatal(err)
		}
		p.bufs[s] = nil
	}
}

// bootAndAppend recovers b, a directory a multi-file log wrote, appends e
// through the recovered Log and closes it. The commit must land in
// seg-000.log alone, with every other file emptied, and the boot after must
// replay exactly it above the first boot's frontier. It returns the first
// boot's recovered image and stats.
func bootAndAppend(t *testing.T, b Backend, lo, hi mem.Addr, e mem.WriteEntry) (wordStore, RecoveryStats) {
	t.Helper()
	w := wordStore{}
	l, stats := openStore(t, Options{Backend: b, Lo: lo, Hi: hi}, w)
	l.Append(stats.Seq+1, []mem.WriteEntry{e})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := b.List(segPrefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := b.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		if (len(data) > 0) != (n == logName) {
			t.Fatalf("after the boot's append %s holds %d bytes; want only %s written", n, len(data), logName)
		}
	}
	w2 := wordStore{}
	l2, next := openStore(t, Options{Backend: b, Lo: lo, Hi: hi}, w2)
	defer l2.Close()
	if next.Seq != stats.Seq+1 || next.Commits != 1 || w2[e.Addr] != e.Value {
		t.Fatalf("the next boot recovered %+v and word %d = %d; want the one append at seq %d", next, e.Addr, w2[e.Addr], stats.Seq+1)
	}
	return w, stats
}

// TestSegmentSeqMustIncrease: a record whose seq is not above its segment's
// previous record ends the segment as torn, even though it verifies on its
// own. Nothing from the tear on is a parsed record, so none of it counts as
// dropped.
func TestSegmentSeqMustIncrease(t *testing.T) {
	for _, c := range []struct {
		name string
		seqs [3]uint64
		want RecoveryStats
		w8   uint64
	}{
		// The second record repeats seq 1; the third (seq 2) is valid.
		{"repeat", [3]uint64{1, 1, 2}, RecoveryStats{Commits: 1, Records: 1, TornTails: 1, Seq: 1}, 101},
		// Seq 1 is missing, so the head is dropped; the tear follows it.
		{"decrease", [3]uint64{2, 1, 3}, RecoveryStats{TornTails: 1, Dropped: 1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var seg []byte
			for i, s := range c.seqs {
				seg = encodeRecord(seg, s, s, 0, 1, []mem.WriteEntry{{Addr: 8, Value: uint64(101 + i)}})
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
				t.Fatalf("w[8] = %d, want %d: nothing after the first record may replay", w[8], c.w8)
			}
		})
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

// TestRecoverAllocsFlat: recovery allocates per log file, not per commit, so
// booting 20 000 commits costs as many allocations as booting 1 000.
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

	repl := append([]byte(nil), model[:memChunkMax+3]...)
	repl[0] ^= 0xff
	if err := b.WriteAtomic("f", repl); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), repl...)
	repl[1] ^= 0xff // WriteAtomic copied: the caller's buffer is its own
	check("replace", want, len(want))
	g, err := b.OpenAppend("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	check("append after replace", append(want, 1, 2, 3), len(want))
}
