// Package genome reimplements the STAMP "genome" kernel: gene sequencing by
// segment deduplication and overlap chaining (paper §3.6). A synthetic
// genome is cut into overlapping fixed-length segments; workers insert
// segments into a shared transactional hash map (deduplication) and link
// each inserted segment to the segment starting where it ends (chaining).
// Transactions are moderate-length and read-heavy — the profile on which
// the paper reports very high instrumentation costs for the STMs and a
// large win for the HTM-based schemes.
package genome

import (
	"fmt"
	"math/rand"

	"rhnorec/internal/conformance"
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
	"rhnorec/internal/txds"
)

// Config sizes the workload.
type Config struct {
	// GenomeLength is the synthetic genome's length in bases.
	GenomeLength int
	// SegmentLength is the length of each extracted segment.
	SegmentLength int
}

// Default matches the paper's moderate-transaction profile at simulator
// scale.
func Default() Config { return Config{GenomeLength: 4096, SegmentLength: 16} }

// App is one genome-assembly instance.
type App struct {
	cfg Config
	// genome is immutable after New and read without instrumentation, like
	// STAMP's private gene pool.
	genome []byte
	// segments deduplicates segment content-hash -> start position.
	segments txds.HashMap
	// links is a transactional array: links[pos] = 1 + position of the
	// segment chained after the segment at pos (0 = unlinked).
	links mem.Addr
}

// New creates an app; call Setup before workers.
func New(cfg Config) *App {
	if cfg.GenomeLength <= 0 || cfg.SegmentLength <= 0 || cfg.SegmentLength > cfg.GenomeLength {
		cfg = Default()
	}
	a := &App{cfg: cfg}
	rng := rand.New(rand.NewSource(0x9e40))
	a.genome = make([]byte, cfg.GenomeLength)
	bases := []byte{'a', 'c', 'g', 't'}
	for i := range a.genome {
		a.genome[i] = bases[rng.Intn(4)]
	}
	return a
}

// Setup allocates the shared structures.
func (a *App) Setup(th tm.Thread) error {
	return th.Run(func(tx tm.Tx) error {
		a.segments = txds.NewHashMap(tx, 256)
		a.links = tx.Alloc(a.cfg.GenomeLength)
		return nil
	})
}

// segmentHash hashes the segment starting at pos.
func (a *App) segmentHash(pos int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < a.cfg.SegmentLength; i++ {
		h ^= uint64(a.genome[(pos+i)%a.cfg.GenomeLength])
		h *= 1099511628211
	}
	return h
}

// worker performs assembly steps on its own TM thread.
type worker struct {
	app *App
	th  tm.Thread
	rng *rand.Rand
}

// NewWorker returns a worker bound to th; each call of the closure is one
// op. The kernel reports nothing in flight: its oracle is Check.
func (a *App) NewWorker(th tm.Thread, seed int64, _ conformance.Report) func() error {
	return (&worker{app: a, th: th, rng: rand.New(rand.NewSource(seed))}).op
}

// op processes one random segment: deduplicate it into the shared map, then
// chain it to its successor segment if that one is already known. One
// transaction covers both phases, mirroring STAMP's per-segment work.
func (w *worker) op() error {
	pos := w.rng.Intn(w.app.cfg.GenomeLength)
	h := w.app.segmentHash(pos)
	succPos := (pos + w.app.cfg.SegmentLength) % w.app.cfg.GenomeLength
	succHash := w.app.segmentHash(succPos)
	return w.th.Run(func(tx tm.Tx) error {
		// Deduplication: first inserter wins; later duplicates read the
		// chain and stop.
		cur, inserted := w.app.segments.PutIfAbsent(tx, h, uint64(pos)+1)
		canonical := int(cur - 1)
		if !inserted && canonical != pos {
			// Content-hash collision between different positions is
			// possible but astronomically unlikely with 64-bit FNV over
			// short segments; treat the canonical copy as the segment.
			pos = canonical
		}
		// Chaining: if the successor segment is known, link to it.
		if succ, ok := w.app.segments.Get(tx, succHash); ok {
			tx.Store(w.app.links+mem.Addr(pos), succ) // succ is position+1
		}
		return nil
	})
}

// Check validates on a quiescent system: every link target is a
// known segment position whose content hash matches the successor hash of
// the link source.
func (a *App) Check(sys tm.System) error {
	th := sys.NewThread()
	defer th.Close()
	return th.Run(func(tx tm.Tx) error {
		known := make(map[uint64]bool)
		a.segments.ForEach(tx, func(_, v uint64) { known[v] = true })
		for pos := 0; pos < a.cfg.GenomeLength; pos++ {
			l := tx.Load(a.links + mem.Addr(pos))
			if l == 0 {
				continue
			}
			if !known[l] {
				return fmt.Errorf("genome: link at %d targets unknown segment %d", pos, l-1)
			}
			succPos := (pos + a.cfg.SegmentLength) % a.cfg.GenomeLength
			if a.segmentHash(int(l-1)) != a.segmentHash(succPos) {
				return fmt.Errorf("genome: link at %d chains to non-overlapping segment %d", pos, l-1)
			}
		}
		return nil
	})
}

// Segments reports the number of distinct segments discovered.
func (a *App) Segments(th tm.Thread) (uint64, error) {
	var n uint64
	err := th.RunReadOnly(func(tx tm.Tx) error {
		n = a.segments.Size(tx)
		return nil
	})
	return n, err
}
