package persist

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rhnorec/internal/mem"
)

// ---- recovery reads the log as a stream of pieces ----

const (
	streamLo = mem.Addr(mem.LineWords)
	streamHi = streamLo + 256*mem.LineWords
)

// pairsLog encodes commits records of npairs pairs each, seqs 1..commits,
// and returns the log and the words it stores.
func pairsLog(commits, npairs int) ([]byte, wordStore) {
	var log []byte
	want := wordStore{}
	writes := make([]mem.WriteEntry, npairs)
	for i := 0; i < commits; i++ {
		for j := range writes {
			a := streamLo + mem.Addr((i*npairs+j)*3%int(streamHi-streamLo))
			writes[j] = mem.WriteEntry{Addr: a, Value: uint64(i<<8 | j + 1)}
			want[a] = writes[j].Value
		}
		log = encodeRecord(log, streamLo, uint64(i+1), writes)
	}
	return log, want
}

// piecedBackend holds log as its log file in chunks of first bytes, then
// step bytes each, as a MemBackend's appends would lay it out: each chunk is
// its own allocation, full to its capacity.
func piecedBackend(log []byte, first, step int) *MemBackend {
	return chunkedBackend(log, func() int { n := first; first = step; return n })
}

// chunkedBackend holds log as its log file in chunks of the sizes next
// returns in turn, each at least one byte.
func chunkedBackend(log []byte, next func() int) *MemBackend {
	f := &memFile{size: len(log)}
	f.synced.Store(int64(len(log)))
	for len(log) > 0 {
		n := min(max(next(), 1), len(log))
		f.chunks = append(f.chunks, append(make([]byte, 0, n), log[:n]...))
		log = log[n:]
	}
	b := NewMemBackend()
	b.files[logName] = f
	return b
}

// recoverWords runs recoverState over b and returns its stats and the words
// it stored.
func recoverWords(t *testing.T, b Backend) (RecoveryStats, wordStore) {
	t.Helper()
	w := wordStore{}
	stats, _, err := recoverState(b, streamLo, streamHi, w.apply)
	if err != nil {
		t.Fatal(err)
	}
	return stats, w
}

// TestStreamEveryChunkOffset recovers logs of one-pair (28-byte) and
// 96-pair (1 168-byte) records whose first chunk ends at every offset of a
// record, the rest cut into memChunkMin-byte chunks, so a 96-pair record
// spans two or three pieces and a one-pair record's every byte is cut at
// once. Every layout must recover every commit.
func TestStreamEveryChunkOffset(t *testing.T) {
	for _, npairs := range []int{1, 96} {
		const commits = 6
		log, want := pairsLog(commits, npairs)
		size := len(log) / commits
		for first := 1; first <= size; first++ {
			stats, got := recoverWords(t, piecedBackend(log, first, memChunkMin))
			if stats.Commits != commits || stats.Seq != commits || stats.TornTails != 0 || !maps.Equal(got, want) {
				t.Fatalf("%d-pair records, first chunk %d bytes: recovered %+v, %d words; want %d commits, %d words",
					npairs, first, stats, len(got), commits, len(want))
			}
		}
		// A piece of one byte cuts every record at every offset.
		if stats, got := recoverWords(t, piecedBackend(log, 1, 1)); stats.Commits != commits || !maps.Equal(got, want) {
			t.Fatalf("%d-pair records in one-byte pieces: recovered %+v", npairs, stats)
		}
	}
}

// TestStreamTornInsideCutRecord cuts the log's last 64-pair record at every
// byte, with a chunk boundary inside the record before the cut: recovery
// must replay the records before it, count one torn tail and store nothing
// of the torn record.
func TestStreamTornInsideCutRecord(t *testing.T) {
	const commits = 4
	log, _ := pairsLog(commits, 64)
	size := len(log) / commits
	_, prefix := recoverWords(t, piecedBackend(log[:len(log)-size], len(log), 1))
	last := len(log) - size
	for keep := last + 1; keep < len(log); keep++ {
		stats, got := recoverWords(t, piecedBackend(log[:keep], last+size/3, memChunkMin))
		if stats.Commits != commits-1 || stats.TornTails != 1 || !maps.Equal(got, prefix) {
			t.Fatalf("log cut %d bytes into its last record: recovered %+v, %d words; want %d commits and a torn tail",
				keep-last, stats, len(got), commits-1)
		}
	}
}

// TestStreamCorruptSizeAllocatesWhatRemains ends a log with a record head
// whose size field claims 4 GiB, followed by a few KiB that span pieces.
// Recovery must stop there with a torn tail, and what it allocates for the
// cut record is bounded by the bytes that remain, not by the size field:
// the copy grows by append as those bytes arrive, which here allocates
// about twice the bytes, and never the 4 GiB.
func TestStreamCorruptSizeAllocatesWhatRemains(t *testing.T) {
	const commits, remain = 50, 3000
	good, _ := pairsLog(commits, 1)
	bad := binary.LittleEndian.AppendUint32(append([]byte(nil), good...), 0xfffffff0)
	bad = append(bad, make([]byte, remain-4)...)
	allocated := func(log []byte) uint64 {
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			b := piecedBackend(log, len(good)+700, memChunkMin)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stats, _, err := recoverState(b, streamLo, streamHi, func(mem.Addr, uint64) {})
			runtime.ReadMemStats(&after)
			if err != nil || stats.Commits != commits {
				t.Fatalf("recovered %+v, %v; want %d commits", stats, err, commits)
			}
			if (len(log) > len(good)) != (stats.TornTails == 1) {
				t.Fatalf("%d-byte log: torn tails %d", len(log), stats.TornTails)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	clean, corrupt := allocated(good), allocated(bad)
	t.Logf("recovery allocates %d bytes over the clean log, %d with the corrupt tail", clean, corrupt)
	if corrupt >= clean+4*remain {
		t.Fatalf("a corrupt size field %d bytes before the end costs %d bytes more than a clean log; want under four times those bytes",
			remain, corrupt-clean)
	}
}

// TestStreamBackendsAgree recovers the same bytes three ways — as a
// MemBackend's chunks, as CrashSnapshot's one-chunk copy and as a
// FileBackend file read through its 64 KiB buffer — and requires identical
// stats and stored words. The log holds records of 1 to 64 pairs, runs past
// several 64 KiB pieces, and ends in a torn record.
func TestStreamBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	live := NewMemBackend()
	l, _, err := Open(Options{Backend: live, Lo: streamLo, Hi: streamHi}, func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		writes := make([]mem.WriteEntry, 1+rng.Intn(64))
		for j := range writes {
			writes[j] = mem.WriteEntry{Addr: streamLo + mem.Addr(rng.Intn(int(streamHi-streamLo))), Value: rng.Uint64()}
		}
		l.Append(uint64(i), writes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := live.OpenAppend(logName)
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeRecord(nil, streamLo, 1501, make([]mem.WriteEntry, 40))
	if err := f.Append(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // so CrashSnapshot keeps every byte
		t.Fatal(err)
	}
	if n := len(live.files[logName].chunks); n < 10 {
		t.Fatalf("the live log is %d chunks; the test wants many", n)
	}

	dir := t.TempDir()
	for _, name := range []string{checkpointName, logName} {
		data, err := live.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}

	stats, words := recoverWords(t, live)
	if stats.Commits != 1500 || stats.TornTails != 1 {
		t.Fatalf("the chunked log recovered %+v; want 1500 commits and a torn tail", stats)
	}
	for _, other := range []struct {
		name string
		b    Backend
	}{{"CrashSnapshot", live.CrashSnapshot()}, {"FileBackend", fb}} {
		got, gotWords := recoverWords(t, other.b)
		if got != stats || !maps.Equal(gotWords, words) {
			t.Fatalf("%s recovered %+v and %d words; the chunks recovered %+v and %d", other.name, got, len(gotWords), stats, len(words))
		}
	}
}

// TestBootHeapFlatInLogLength: what a boot allocates does not grow with the
// log's length. Open over 20 000 and over 200 000 one-pair commits of the
// same 1 024 keys, from a MemBackend and from a FileBackend, must allocate
// within 256 KiB of each other; reading the whole log into memory differed
// by the 7 MB the longer log adds.
func TestBootHeapFlatInLogLength(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 8 MB log")
	}
	const slack = 256 << 10
	logs := map[int]*MemBackend{}
	for _, commits := range []int{20000, 200000} {
		logs[commits] = oneWordLog(t, commits)
	}
	for _, kind := range []string{"MemBackend", "FileBackend"} {
		bootBytes := func(commits int) uint64 {
			best := ^uint64(0)
			for round := 0; round < 3; round++ {
				// Boot from the chunks Log appended, not from one copy.
				var b Backend = chunkedCopy(logs[commits])
				if kind == "FileBackend" {
					dir := t.TempDir()
					for _, name := range []string{checkpointName, logName} {
						data, err := logs[commits].ReadFile(name)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					fb, err := NewFileBackend(dir)
					if err != nil {
						t.Fatal(err)
					}
					b = fb
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				openOneWordLog(t, b, commits)
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			return best
		}
		short, long := bootBytes(20000), bootBytes(200000)
		t.Logf("%s: a boot allocates %d bytes over 20 000 commits, %d over 200 000", kind, short, long)
		if diff := max(short, long) - min(short, long); diff >= slack {
			t.Fatalf("%s: a boot allocates %d bytes over 20 000 commits and %d over 200 000; want within %d of each other",
				kind, short, long, slack)
		}
	}
}

// chunkedCopy returns a MemBackend holding b's files in the same chunks,
// so that a boot from it, which truncates its log, leaves b as it was.
func chunkedCopy(b *MemBackend) *MemBackend {
	out := NewMemBackend()
	for name, f := range b.files {
		g := &memFile{size: f.size, chunks: append([][]byte(nil), f.chunks...)}
		g.synced.Store(f.synced.Load())
		out.files[name] = g
	}
	return out
}

// BenchmarkOpenRestartFile is BenchmarkOpenRestart's restart from a
// FileBackend directory: Open streams the 20 000-commit log through one
// 64 KiB buffer. The directory is rewritten before each boot, timer
// stopped.
func BenchmarkOpenRestartFile(b *testing.B) {
	const keys, commits = 1 << 16, 20000
	m := mem.New(keys*mem.LineWords + 2*mem.LineWords)
	lo := m.AllocMark()
	hi := lo + keys*mem.LineWords
	src := restartImage(b, lo, hi, keys, commits)
	files := map[string][]byte{}
	for _, name := range []string{checkpointName, logName} {
		data, err := src.ReadFile(name)
		if err != nil {
			b.Fatal(err)
		}
		files[name] = data
	}
	dir := b.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Backend: fb, Lo: lo, Hi: hi}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
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

// ---- recovery against a whole-buffer reference decoder ----

// refRecover decodes log in one buffer, field by field apart from
// parseRecord and recoverState, over a checkpoint at base that holds no
// pairs. It replays each record that verifies and carries the frontier's
// next seq, skips those at or below base, and stops at the first other
// record; bytes left unread are a torn tail. ok is false when a record it
// would replay holds an offset outside [streamLo, streamHi).
func refRecover(log []byte, base uint64) (stats RecoveryStats, words wordStore, ok bool) {
	le := binary.LittleEndian
	stats = RecoveryStats{CheckpointSeq: base, Seq: base}
	words = wordStore{}
	for len(log) >= 4 {
		size := uint64(le.Uint32(log))
		if size < 12 || (size-12)%12 != 0 || size > uint64(len(log)-4) {
			break
		}
		payload := log[4:size]
		if crc32c(payload) != le.Uint32(log[size:]) {
			break
		}
		seq := le.Uint64(payload)
		if seq > base && seq != stats.Seq+1 {
			break
		}
		log = log[4+size:]
		if seq <= base {
			continue
		}
		for p := payload[8:]; len(p) > 0; p = p[12:] {
			off := mem.Addr(le.Uint32(p))
			if off >= streamHi-streamLo {
				return stats, nil, false
			}
			words[streamLo+off] = le.Uint64(p[4:])
		}
		stats.Commits++
		stats.Seq = seq
	}
	if len(log) > 0 {
		stats.TornTails = 1
	}
	return stats, words, true
}

// FuzzRecover reads spec as a program that lays out a log of records with
// valid checksums — how many, each one's pair count, offsets and values, a
// seq out of order now and then, an offset past the range when a byte reads
// 0xff — over a checkpoint at a small base, then flips bits, cuts bytes off
// the tail and splits what is left into pieces of the sizes spec's last
// bytes give (one byte each once spec runs out). recoverState must not
// panic, and must agree with refRecover on the stats, the words stored and
// whether the log is refused.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{})
	// Three one-pair records in order, no damage, in 5-byte pieces.
	f.Add([]byte{0, 3, 0, 1, 10, 1, 0, 1, 20, 2, 0, 1, 30, 3, 0, 0, 5})
	// A base of 2 under five records, the fourth repeating seq 3.
	f.Add([]byte{2, 5, 0, 2, 1, 1, 2, 2, 0, 1, 3, 3, 0, 1, 4, 4, 0xf3, 1, 5, 5, 0, 1, 6, 6, 0, 0, 64})
	// Two records, a bit flipped in the second, the tail cut by 3 bytes.
	f.Add([]byte{0, 2, 0, 4, 1, 1, 2, 2, 3, 3, 4, 4, 0, 4, 5, 5, 6, 6, 7, 7, 8, 8, 1, 0, 100, 5, 3, 7, 11})
	// An offset past the range in the second record.
	f.Add([]byte{0, 2, 0, 1, 9, 9, 0, 2, 8, 8, 0xff, 7, 0, 0, 255})
	f.Fuzz(func(t *testing.T, spec []byte) {
		next := func() byte {
			if len(spec) == 0 {
				return 0
			}
			c := spec[0]
			spec = spec[1:]
			return c
		}
		span := uint32(streamHi - streamLo)
		base := uint64(next() % 4)
		var log []byte
		for seq, n := uint64(1), uint64(next()%16); seq <= n; seq++ {
			s := seq
			if c := next(); c >= 0xf0 {
				s = uint64(c & 0xf)
			}
			pairs := make([]mem.WriteEntry, next()%5)
			for j := range pairs {
				off := uint32(next()) * span / 0xff // 0xff reads span: one past the range
				pairs[j] = mem.WriteEntry{Addr: streamLo + mem.Addr(off), Value: uint64(next())<<32 | seq}
			}
			log = encodeRecord(log, streamLo, s, pairs)
		}
		for flips := next() % 4; flips > 0 && len(log) > 0; flips-- {
			at := int(next())<<8 | int(next())
			log[at%len(log)] ^= 1 << (next() % 8)
		}
		log = log[:len(log)-min(int(next()), len(log))]

		b := chunkedBackend(log, func() int { return int(next()) })
		if err := saveCheckpoint(b, &wordSet{lo: streamLo, hi: streamHi}, base, nil); err != nil {
			t.Fatal(err)
		}
		words := wordStore{}
		stats, _, err := recoverState(b, streamLo, streamHi, words.apply)
		wantStats, wantWords, ok := refRecover(log, base)
		if !ok {
			if err == nil {
				t.Fatalf("recovered %+v from a log the reference refuses for an offset past the range", stats)
			}
			return
		}
		if err != nil {
			t.Fatalf("recoverState: %v; the reference recovers %+v", err, wantStats)
		}
		if stats != wantStats || !maps.Equal(words, wantWords) {
			t.Fatalf("recovered %+v and %d words; the reference recovers %+v and %d words", stats, len(words), wantStats, len(wantWords))
		}
	})
}
