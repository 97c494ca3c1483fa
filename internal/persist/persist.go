// Package persist is the durable persistence plane behind internal/mem: a
// one-file redo log with group fsync, torn-write detection, and
// crash-recovery replay (DESIGN.md §15, docs/PERSIST.md).
//
// Committing transactions append their write sets through the mem.Persister
// hook; the log assigns each in-range commit a dense sequence number, frames
// it as one checksummed record in its append buffer, and leaves flushing to
// the group-fsync path: WaitDurable batches every waiter behind one write and
// one fsync, so durability costs one fsync per commit *group*, not per
// transaction. The HTM fast path stays uninstrumented — its commits reach the
// log through the same software CommitWrites funnel as everyone else, which
// is the paper's fast-path/slow-path split carried into the durability plane.
//
// Recovery (Open) reads the log as one stream of records, replays them in
// sequence on top of the checkpoint, and stops at the first record that is
// torn, checksum-corrupt or out of sequence — so a crash can lose only
// un-acked suffix commits, never resurrect an aborted transaction, and never
// tear one in half. It then checkpoints the words it stored, each read back
// once and the zero ones left out, so a boot costs what the directory holds,
// not the size of the range. Records and checkpoints carry no byte they can
// derive: a pair is a u32 offset from Lo and a u64 value, a record's pair
// count follows from its size, and the CRC-32C checksum is 4 bytes. This
// build writes checkpoint magic RHCKPT05, and a directory whose checkpoint
// an older format wrote (RHCKPT01 through RHCKPT04) is refused at boot by its
// magic, untouched.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"rhnorec/internal/mem"
)

// Event identifies one persistence yield point (the explore crash plane
// counts these to place deterministic crashes).
type Event uint8

const (
	// EventAppend fires after a commit's records are buffered (sequence
	// assigned, nothing durable yet).
	EventAppend Event = iota
	// EventSync fires after a group-fsync pass advances the durable frontier.
	EventSync
)

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory; used when Backend is nil (FileBackend).
	Dir string
	// Backend overrides the byte store (tests, crash exploration).
	Backend Backend
	// Lo, Hi bound the persisted address range [Lo, Hi): only write entries
	// inside it are logged, so TM metadata words (the global clock, the
	// fallback counter) never spam the log or get replayed over a fresh
	// system's state. The range spans at most 2^32 words: a record stores
	// each address as a u32 offset from Lo.
	Lo, Hi mem.Addr
	// OnEvent, when set, observes every append and sync (explore crash
	// plane). Called outside the log's locks.
	OnEvent func(ev Event, seq uint64)
}

// Record layout (little-endian), one record per commit:
//
//	u32 size — byte length of everything after this field: 12 + 12n
//	u64 seq  — dense per-log commit sequence number
//	n × (u32 off, u64 val) — each word's address as an offset from Lo
//	u32 sum  — CRC-32C of seq through the last pair
//
// A record of n pairs is 16 + 12n bytes; n follows from size, so the record
// carries no count of its own.
const (
	recSeqBytes  = 8
	recPairBytes = 4 + 8
	recSumBytes  = 4
	// recFixedBytes is what a record's size field counts besides its pairs.
	recFixedBytes = recSeqBytes + recSumBytes
)

// maxSpan is the widest range Open accepts: every offset from Lo must fit a
// pair's u32.
const maxSpan = 1 << 32

// appendPair appends one pair, a record's or a checkpoint's: the word's
// offset from lo, then its value.
func appendPair(b []byte, off uint32, v uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, off)
	return binary.LittleEndian.AppendUint64(b, v)
}

// readPair decodes the pair at the head of p.
func readPair(p []byte) (off uint32, v uint64) {
	return binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint64(p[4:])
}

// Counters is a point-in-time copy of the log's ledger, surfaced in the
// rhserve.v1 dump's persist block (log_appends, log_records, fsync_groups,
// fsyncs, appended, durable; docs/METRICS.md).
type Counters struct {
	// Appends counts logged commits (sequence numbers assigned).
	Appends uint64
	// Records counts redo records buffered: one per logged commit, so it
	// equals Appends.
	Records uint64
	// FsyncGroups counts group-fsync passes that flushed anything.
	FsyncGroups uint64
	// Fsyncs counts individual file fsyncs: one per group, so it equals
	// FsyncGroups.
	Fsyncs uint64
	// Appended and Durable are the log's two frontiers: the last assigned
	// sequence and the last sequence guaranteed on stable storage.
	Appended uint64
	Durable  uint64
	// Recovery holds the boot-time replay outcome.
	Recovery RecoveryStats
}

// Log is the append side of the persistence plane. It implements
// mem.Persister; construct with Open (which also runs recovery).
type Log struct {
	lo, hi  mem.Addr
	onEvent func(Event, uint64)

	// appendMu orders sequence assignment and buffer encoding; holding it is
	// the linearization point of persistence. Conflicting commits reach
	// Append while still holding their stripe locks (or the software clock
	// lock), so sequence order extends the TM's serialization order. The
	// append half of the ledger lives under it too.
	appendMu sync.Mutex
	seq      uint64
	buf      []byte
	nAppends uint64

	// appended mirrors seq and durable is stored only under syncMu; both are
	// atomics so the frontiers read without a lock.
	appended atomic.Uint64
	durable  atomic.Uint64

	// syncMu serializes group-fsync passes. It is never held across a
	// scheduler yield point (syncLocked performs no memory-hook traffic), so
	// the cooperative explorer cannot park a worker that owns it. The sync
	// half of the ledger and the closed flag live under it.
	syncMu       sync.Mutex
	flush        []byte
	file         File
	nFsyncGroups uint64
	closed       bool

	// err is the sticky I/O error: the first failure wins and is never
	// replaced, so Err and WaitDurable read it without a lock.
	err atomic.Pointer[error]

	recovery RecoveryStats
}

// Append implements mem.Persister: it buffers one redo record for the
// in-range entries of writes, under a dense sequence number. Commits with no
// in-range entries produce no record and no sequence. Append does no I/O:
// it runs inside the committer's stripe window (or under the software clock
// lock), so only WaitDurable, Sync and Close write and fsync. The memory's
// commit ticket is not logged.
func (l *Log) Append(_ uint64, writes []mem.WriteEntry) {
	npairs := 0
	for i := range writes {
		if writes[i].Addr >= l.lo && writes[i].Addr < l.hi {
			npairs++
		}
	}
	if npairs == 0 {
		return
	}
	l.appendMu.Lock()
	seq := l.seq + 1
	b := binary.LittleEndian.AppendUint32(l.buf, uint32(recFixedBytes+npairs*recPairBytes))
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, seq)
	for i := range writes {
		if a := writes[i].Addr; a >= l.lo && a < l.hi {
			b = appendPair(b, uint32(a-l.lo), writes[i].Value)
		}
	}
	l.buf = binary.LittleEndian.AppendUint32(b, checksum(b[start:]))
	l.seq = seq
	l.appended.Store(seq)
	l.nAppends++
	l.appendMu.Unlock()
	if l.onEvent != nil {
		l.onEvent(EventAppend, seq)
	}
}

// Appended returns the last assigned sequence number: the frontier a
// durable-acking caller should WaitDurable on after its commit returns.
func (l *Log) Appended() uint64 { return l.appended.Load() }

// Durable returns the last sequence guaranteed on stable storage.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// WaitDurable blocks until every append with sequence <= seq is durable,
// running a group-fsync pass if nobody else gets there first. Concurrent
// waiters batch: one pass writes and fsyncs the log once and advances the
// durable frontier past all of them. It returns the log's sticky I/O error,
// if any, and an error without waiting further when a pass leaves every
// appended sequence durable and seq is still beyond them: no sync can make
// durable a sequence nobody has appended.
func (l *Log) WaitDurable(seq uint64) error {
	if l.durable.Load() >= seq {
		return l.Err()
	}
	l.syncMu.Lock()
	synced := false
	var err error
	for l.durable.Load() < seq {
		if err = l.Err(); err != nil {
			break
		}
		if d := l.durable.Load(); synced && d == l.appended.Load() {
			err = fmt.Errorf("persist: WaitDurable(%d) is past the appended frontier %d (durable %d)", seq, d, d)
			break
		}
		l.syncLocked()
		synced = true
	}
	l.syncMu.Unlock()
	if synced && l.onEvent != nil {
		l.onEvent(EventSync, l.durable.Load())
	}
	if err != nil {
		return err
	}
	return l.Err()
}

// Sync forces one group-fsync pass over everything appended so far.
func (l *Log) Sync() error { return l.WaitDurable(l.appended.Load()) }

// syncLocked (syncMu held) swaps out the append buffer, writes and fsyncs it
// once if it holds anything, then advances the durable frontier to the
// sequence captured at the swap. After a failed pass it does nothing: a later
// fsync that succeeds does not prove the failed bytes reached the disk, so
// the frontier stays where the failure left it.
func (l *Log) syncLocked() {
	if l.err.Load() != nil {
		return
	}
	l.appendMu.Lock()
	target := l.seq
	l.buf, l.flush = l.flush[:0], l.buf
	l.appendMu.Unlock()
	if len(l.flush) > 0 {
		if err := l.file.Append(l.flush); err != nil {
			l.fail(err)
			return
		}
		if err := l.file.Sync(); err != nil {
			l.fail(err)
			return
		}
		l.nFsyncGroups++
	}
	l.durable.Store(target)
}

// fail records err as the sticky error unless an earlier one is set.
func (l *Log) fail(err error) { l.err.CompareAndSwap(nil, &err) }

// Err returns the log's sticky I/O error (nil while healthy). Once set, the
// durable frontier stops advancing and durable acks fail.
func (l *Log) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close flushes and fsyncs everything appended (nothing once the sticky
// error is set, which it then returns), then closes the log file. The
// memory's persister must be detached (or all committers drained) first.
func (l *Log) Close() error {
	l.syncMu.Lock()
	if l.closed {
		l.syncMu.Unlock()
		return errClosed
	}
	l.closed = true
	l.syncLocked()
	l.syncMu.Unlock()
	err := l.Err()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// CountersSnapshot copies the log's ledger. Each half is read with its
// frontier under the lock that guards it — syncMu, then appendMu, the order
// syncLocked takes them in — so every snapshot satisfies Durable <= Appended,
// however busy the log is. The price is that it may wait behind one
// group-fsync pass; nothing on a commit path calls it.
func (l *Log) CountersSnapshot() Counters {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	c := Counters{
		FsyncGroups: l.nFsyncGroups,
		Fsyncs:      l.nFsyncGroups,
		Durable:     l.durable.Load(),
		Recovery:    l.recovery,
	}
	l.appendMu.Lock()
	c.Appends, c.Records, c.Appended = l.nAppends, l.nAppends, l.seq
	l.appendMu.Unlock()
	return c
}

// castagnoli is the CRC-32C table, built once; crc32 computes it with the
// CPU's CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the record and checkpoint checksum: the CRC-32C of p.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

func (o Options) withDefaults() (Options, error) {
	if o.Hi < o.Lo {
		return o, fmt.Errorf("persist: inverted range [%d,%d)", o.Lo, o.Hi)
	}
	if uint64(o.Hi-o.Lo) > maxSpan {
		return o, fmt.Errorf("persist: range [%d,%d) is %d words, wider than the 2^32 a pair's offset reaches", o.Lo, o.Hi, o.Hi-o.Lo)
	}
	if o.Backend == nil {
		if o.Dir == "" {
			return o, fmt.Errorf("persist: Options needs Dir or Backend")
		}
		b, err := NewFileBackend(o.Dir)
		if err != nil {
			return o, err
		}
		o.Backend = b
	}
	return o, nil
}
