// Package serve is the network-facing transactional KV service layer: the
// first layer of this repository that serves traffic instead of running
// benchmarks (ROADMAP PR 7). It maps a
// fixed key space onto the striped word arena (key k lives at one cache
// line, so distinct keys conflict only through real stripe sharing), keeps
// a sticky pool of worker threads sized to htm.Config.Cores, fuses a
// pipelined drain's requests into batched transactions, and
// admission-controls the request stream off the retry engine's live
// slow-path occupancy (DESIGN.md §13, docs/SERVE.md).
//
// Request flow: a transport handler (HTTP JSON or the length-prefixed
// binary protocol, both on one listener — see http.go and binary.go)
// normalizes a request into ops and routes it to a worker by
// client-identity hash (sticky, so one client's hot keys stay on one
// thread's stripe and cache footprint). A worker is passive: one mutex
// guards its tm.Thread and its metrics, and the handler's own goroutine
// takes that mutex and executes its chain — a binary drain's run of
// consecutive same-worker frames, or one Do request — in slices of up to
// Config.BatchMax requests, each ONE transaction. A fused batch is
// trivially atomic (it is one transaction), and a session runs its chains
// one after another, so a connection's requests take effect in the order
// it sent them. Every op, a SCAN included, reads through its batch's
// transaction (applyOps), so the service has one way to read a key.
// Read-only batches run via RunReadOnly, keeping the fast paths' clock-free
// commit. Separate Do callers do not fuse with each other. A chain that
// owes durable acks waits for the fsync after it has released the worker,
// so chains committing meanwhile share the group fsync.
//
// Admission control (paper-level motivation: Brown & Ravi's
// cost-of-concurrency analysis says the fast/slow path mix, not raw
// throughput, is what saturates a HyTM): a chain is shed with a
// retry-later verdict when (1) Config.QueueDepth chains are already
// blocked waiting for its sticky worker, (2) the slow path is saturated —
// at least saturationThreads threads on it — while at least QueueDepth/2
// chains are waiting, or (3), per request, its deadline expired before the
// worker was taken. Sheds are ledgered per cause in the rhserve.v1 dump
// (internal/bench) and surface as HTTP 429 + Retry-After.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhnorec/internal/bench"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/persist"
	"rhnorec/internal/tm"
)

// Endpoint identifies one service endpoint; the vocabulary matches
// bench.ServeEndpointNames (the rhserve.v1 schema).
type Endpoint uint8

const (
	// EpGet is multi-key transactional GET.
	EpGet Endpoint = iota
	// EpPut is single-key transactional PUT.
	EpPut
	// EpCas is compare-and-swap.
	EpCas
	// EpScan is a contiguous-range read.
	EpScan
	// EpTxn is the multi-op transactional batch endpoint.
	EpTxn

	numEndpoints
)

// String returns the endpoint's schema name.
func (e Endpoint) String() string {
	if int(e) < len(bench.ServeEndpointNames) {
		return bench.ServeEndpointNames[e]
	}
	return "invalid"
}

// OpKind is one transactional sub-operation's kind.
type OpKind uint8

const (
	// OpGet reads one key.
	OpGet OpKind = iota + 1
	// OpPut writes one key.
	OpPut
	// OpCas compares-and-swaps one key.
	OpCas
	// OpScan reads Count contiguous keys starting at Key.
	OpScan
)

// Op is one normalized sub-operation of a request.
type Op struct {
	Kind OpKind
	// Key is the target key (scan: the range start).
	Key uint64
	// Val is the value to write (put) or swap in (cas).
	Val uint64
	// Old is the expected value (cas only).
	Old uint64
	// Count is the range length (scan only).
	Count uint32
}

// OpResult is one sub-operation's result.
type OpResult struct {
	// Val is the read value (get) or the value observed by a cas.
	Val uint64
	// Vals holds a scan's values.
	Vals []uint64
	// Swapped reports whether a cas published its new value.
	Swapped bool
}

// overwrite sets r to a result of val, swapped and n scan values, and
// returns those values for the caller to fill. It keeps r's Vals backing
// array: a GET, PUT or CAS result (n = 0) carries it emptied, and a SCAN
// refills it when its capacity suffices, so a recycled result slot
// allocates only to grow. A fresh slot's n = 0 result keeps Vals nil.
func (r *OpResult) overwrite(val uint64, swapped bool, n int) []uint64 {
	vals := r.Vals[:0]
	if cap(vals) < n {
		vals = make([]uint64, n)
	}
	*r = OpResult{Val: val, Swapped: swapped, Vals: vals[:n]}
	return r.Vals
}

// Config parameterizes a Server. Zero fields take defaults.
type Config struct {
	// Algo names the backing TM system (bench.AlgoByName vocabulary;
	// default "rh-norec").
	Algo string
	// Keys is the number of KV slots (default 1 << 16). Key k occupies its
	// own cache line at arena offset k*mem.LineWords.
	Keys int
	// HTM configures the simulated hardware (zero fields take Haswell-like
	// defaults).
	HTM htm.Config
	// Workers sizes the sticky worker pool (default: the HTM core count —
	// one transaction-running thread per simulated core).
	Workers int
	// QueueDepth bounds how many chains may block waiting for one worker
	// (default 256); a chain that finds that many waiting is shed.
	QueueDepth int
	// BatchMax bounds how many requests of a chain one transaction fuses
	// (default 16, minimum 1).
	BatchMax int
	// RequestTimeout sheds requests whose deadline expires before their
	// worker is taken (default 1s).
	RequestTimeout time.Duration
	// RetryAfter is the client backpressure hint returned with a shed
	// (default 1s; HTTP rounds up to whole seconds for the Retry-After
	// header, the binary protocol carries milliseconds).
	RetryAfter time.Duration
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on the
	// service mux (off by default: profiling endpoints are opt-in).
	Pprof bool
	// DataDir, when non-empty, arms the durable persistence plane
	// (internal/persist): boot-time crash recovery replays the directory's
	// redo logs into the key arena, and every committing write transaction
	// appends its write set — hardware commits inside mem.CommitWrites,
	// software ones where the driver seals its write log (tm.WriteLog), so
	// any Algo works.
	DataDir string
	// DurableAcks, when true, makes EVERY write request wait for its redo
	// record to be fsynced before the reply (as if each connection had sent
	// OpcodeDurable). No effect without DataDir.
	DurableAcks bool
}

func (c Config) withDefaults() Config {
	if c.Algo == "" {
		c.Algo = "rh-norec"
	}
	if c.Keys <= 0 {
		c.Keys = 1 << 16
	}
	if c.Workers <= 0 {
		c.Workers = c.HTM.Cores
		if c.Workers <= 0 {
			c.Workers = htm.DefaultConfig().Cores
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// maxScanCount bounds one scan's range length.
const maxScanCount = 4096

// maxTxnOps bounds one TXN request's op count.
const maxTxnOps = 128

// engineHolder is the optional accessor hybrid systems implement; the
// admission controller reads the engine's live slow-path occupancy.
type engineHolder interface{ Engine() *tm.Engine }

// RequestError is a client-side error (bad key, malformed op): HTTP 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

// reqErrf builds a RequestError.
func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ErrShed is the admission controller's retry-later verdict: HTTP 429 with
// a Retry-After hint.
var ErrShed = fmt.Errorf("serve: overloaded, retry later")

// ErrClosed reports a request caught in server shutdown.
var ErrClosed = fmt.Errorf("serve: server closed")

// request is one in-flight request envelope. worker.exec answers it in
// place (res, err, shed) before returning to the caller. Envelopes are
// recyclable: the binary session embeds one per pipeline slot and rewrites
// every field before each execution.
type request struct {
	ep       Endpoint
	ops      []Op
	readOnly bool
	// durable asks for a durable ack: the reply waits until the request's
	// redo record is fsynced (binary protocol OpcodeDurable, or
	// Config.DurableAcks). Meaningless on read-only requests.
	durable bool
	// awaitSync marks a committed request whose durable ack waits for the
	// fsync; worker.awaitDurable settles it and clears the mark.
	awaitSync bool
	res       []OpResult
	err       error
	shed      bool
	enq       int64 // obs.Now when the request arrived
	deadline  int64 // obs.Now after which a request still waiting is shed
	// next links a chain: a binary drain's run of consecutive same-worker
	// frames, which worker.exec fuses as one unit.
	next *request
}

// pipelineBucketCount is the number of power-of-two pipeline-depth buckets
// (1, 2, 4, ..., 64); the last bucket absorbs deeper drains.
const pipelineBucketCount = 7

// pipelineCounters ledgers binary-session drain depths: one count per
// drain, bucketed by the smallest power of two >= the number of frames the
// drain carried. Incremented by connection goroutines (atomics — sessions
// are not worker-owned).
type pipelineCounters struct {
	buckets [pipelineBucketCount]atomic.Uint64
}

func (p *pipelineCounters) record(depth int) {
	i := 0
	for d := 1; d < depth && i < pipelineBucketCount-1; d <<= 1 {
		i++
	}
	p.buckets[i].Add(1)
}

// Server is one KV service instance: the memory, the TM system, and the
// sticky worker pool. Construct with New, expose transports via Handler
// (HTTP only, e.g. under httptest) or Start (the demuxed HTTP+binary
// listener), and always Close.
type Server struct {
	cfg    Config
	sys    tm.System
	dev    *htm.Device
	engine *tm.Engine
	base   mem.Addr
	start  time.Time

	workers []*worker
	stop    chan struct{}
	once    sync.Once

	// log is the durable redo log (nil without Config.DataDir); recovery is
	// what boot-time replay found in DataDir before the workers existed.
	log      *persist.Log
	recovery persist.RecoveryStats

	admission admissionCounters
	pipeline  pipelineCounters

	mu sync.Mutex
	ln *listener
}

// New builds a Server: allocates the arena, constructs the TM system, and
// creates the worker pool and its threads. The caller must Close it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	algo, ok := bench.AlgoByName(cfg.Algo)
	if !ok {
		return nil, fmt.Errorf("serve: unknown algo %q", cfg.Algo)
	}
	// Arena: one line per key and the reserved nil line, plus fixed slack
	// for the allocator's refill batching (a small-class refill carves up to
	// 64 blocks at once — the TM system's global words must not starve the
	// key arena), which also covers the size-class rounding of a key range
	// of at most 4 096 words; a larger one is carved exactly. A driver that
	// keeps a metadata table of its own in the arena (rh-tl2's stripes) gets
	// room for it, doubled for its class rounding.
	words := (cfg.Keys+1)*mem.LineWords + 8192 + 2*algo.MetaWords
	m := mem.New(words)
	dev := htm.NewDevice(m, cfg.HTM)
	dev.SetActiveThreads(cfg.Workers)
	sys := algo.New(m, dev)

	s := &Server{
		cfg:   cfg,
		sys:   sys,
		dev:   dev,
		base:  m.NewThreadCache().Alloc(cfg.Keys * mem.LineWords),
		start: time.Now(),
		stop:  make(chan struct{}),
	}
	if cfg.DataDir != "" {
		// Recovery replays into the arena here, before any worker exists:
		// the plain stores need no synchronization and no commit can race
		// the replay.
		log, stats, err := persist.Open(persist.Options{
			Dir: cfg.DataDir,
			Lo:  s.base,
			Hi:  s.base + mem.Addr(cfg.Keys*mem.LineWords),
		}, m.StorePlain, m.LoadPlain)
		if err != nil {
			return nil, fmt.Errorf("serve: persistence: %w", err)
		}
		s.log, s.recovery = log, stats
		m.SetPersister(log)
	}
	if eh, ok := sys.(engineHolder); ok {
		s.engine = eh.Engine()
	}
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.workers {
		s.workers[i] = newWorker(s)
	}
	return s, nil
}

// Algo reports the backing TM system's name.
func (s *Server) Algo() string { return s.sys.Name() }

// Keys reports the key-space size.
func (s *Server) Keys() int { return s.cfg.Keys }

// Workers reports the sticky worker pool size.
func (s *Server) Workers() int { return len(s.workers) }

// Recovery reports what boot-time crash recovery replayed from
// Config.DataDir (zero stats, false when persistence is off).
func (s *Server) Recovery() (persist.RecoveryStats, bool) {
	return s.recovery, s.log != nil
}

// Close stops the workers and the listener (idempotent). A chain already
// running finishes; every chain that takes its worker afterwards is
// answered with ErrClosed. With persistence armed, Close takes every
// worker FIRST and only then fsyncs and closes the redo log, so every
// commit acked before shutdown is durable on return — a Close-then-reopen
// loses nothing.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.close()
	}
	for _, w := range s.workers {
		w.close()
	}
	if s.log != nil {
		s.log.Close() // final group fsync + file close
	}
}

// stopped reports whether Close has begun.
func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// addrOf maps a key onto its arena slot.
func (s *Server) addrOf(key uint64) mem.Addr {
	return s.base + mem.Addr(key*mem.LineWords)
}

// sum64a is an inline FNV-1a over s: the same hash hash/fnv computes, minus
// the heap-allocated hasher object and the []byte(client) copy a
// fnv.New64a()+Write pair costs on every request.
func sum64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// workerFor routes a client identity to its sticky worker (FNV-1a hash).
// Binary sessions call this once per identity (at connect and at Hello) and
// cache the worker; the HTTP path calls it per request but allocates
// nothing either way.
func (s *Server) workerFor(client string) *worker {
	return s.workers[sum64a(client)%uint64(len(s.workers))]
}

// checkOps validates a request's ops against the key space and clamps.
func (s *Server) checkOps(ops []Op) error {
	if len(ops) == 0 {
		return reqErrf("empty op list")
	}
	if len(ops) > maxTxnOps {
		return reqErrf("%d ops exceed the per-request limit %d", len(ops), maxTxnOps)
	}
	n := uint64(s.cfg.Keys)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpGet, OpPut, OpCas:
			if op.Key >= n {
				return reqErrf("key %d out of range [0,%d)", op.Key, n)
			}
		case OpScan:
			if op.Count == 0 {
				return reqErrf("scan count must be positive")
			}
			if op.Count > maxScanCount {
				return reqErrf("scan count %d exceeds limit %d", op.Count, maxScanCount)
			}
			if op.Key >= n || uint64(op.Count) > n-op.Key {
				return reqErrf("scan [%d,%d) out of range [0,%d)", op.Key, op.Key+uint64(op.Count), n)
			}
		default:
			return reqErrf("invalid op kind %d", op.Kind)
		}
	}
	return nil
}

// readOnlyOps reports whether every op is a read.
func readOnlyOps(ops []Op) bool {
	for i := range ops {
		if ops[i].Kind == OpPut || ops[i].Kind == OpCas {
			return false
		}
	}
	return true
}

// saturationThreads is how many threads on the slow path at once count as
// a saturated engine.
const saturationThreads = 2

// saturated reports whether the saturation shed trips for w: with the slow
// path already crowded, new work is shed while this worker is backlogged,
// so the convoy drains instead of growing.
func (s *Server) saturated(w *worker) bool {
	return s.engine != nil && s.engine.SlowPathLoad() >= saturationThreads && w.waiting.Load() >= int64(s.cfg.QueueDepth/2)
}

// Do validates, admits, and executes one request on the client's sticky
// worker, on the caller's goroutine, and returns when it is answered: the
// per-op results, ErrShed (retry later), a *RequestError (client error), or
// ErrClosed. Do allocates its envelope (the results escape to the caller);
// the binary session keeps per-connection recycled envelopes and calls
// worker.exec directly. Each Do call is its own one-request chain, so
// concurrent Do callers never fuse into one transaction.
func (s *Server) Do(client string, ep Endpoint, ops []Op) ([]OpResult, error) {
	if err := s.checkOps(ops); err != nil {
		return nil, err
	}
	now := obs.Now()
	r := &request{
		ep:       ep,
		ops:      ops,
		readOnly: readOnlyOps(ops),
		res:      make([]OpResult, len(ops)),
		enq:      now,
		deadline: now + s.cfg.RequestTimeout.Nanoseconds(),
	}
	if !s.workerFor(client).exec(r, 1) || r.shed {
		return nil, ErrShed
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.res, nil
}

// applyOps executes one request's ops against the transactional view,
// overwriting res. It is re-executed from the top on every restart, so it
// writes results idempotently. Every result goes through
// OpResult.overwrite, which keeps the slot's scan buffer whatever opcode
// lands there, so a recycled envelope allocates nothing in steady state.
func (s *Server) applyOps(tx tm.Tx, ops []Op, res []OpResult) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpGet:
			res[i].overwrite(tx.Load(s.addrOf(op.Key)), false, 0)
		case OpPut:
			tx.Store(s.addrOf(op.Key), op.Val)
			res[i].overwrite(op.Val, false, 0)
		case OpCas:
			cur := tx.Load(s.addrOf(op.Key))
			swapped := cur == op.Old
			if swapped {
				tx.Store(s.addrOf(op.Key), op.Val)
			}
			res[i].overwrite(cur, swapped, 0)
		case OpScan:
			vals := res[i].overwrite(0, false, int(op.Count))
			for j := range vals {
				vals[j] = tx.Load(s.addrOf(op.Key + uint64(j)))
			}
		}
	}
}
