package main

import (
	"math"

	"rhnorec/internal/serve"
)

// The benchmark owns its input generators so its inputs cannot move when
// the repository's harness packages (internal/bench, internal/tmtest, ...)
// are rewritten: a splitmix64 stream, a YCSB-style scrambled zipf, and one
// operation generator per workload family. Everything is a pure function
// of (seed, trial, block, client), which the stream-hash test pins.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every n
// the workloads use.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamSeed derives the generator seed of one client's one block, so a
// block's inputs depend only on these four numbers.
func streamSeed(seed uint64, trial, block, client int) uint64 {
	r := rng{s: seed}
	for _, v := range [...]int{trial, block, client} {
		r.s ^= r.next() + uint64(v)*0xD6E8FEB86659FD93
	}
	return r.next()
}

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta (Gray et al.,
// the YCSB generator) and scrambles them over the key space with a hash, so
// the hot keys are spread out instead of being keys 0, 1, 2, ...
type zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n uint64, theta float64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: n, theta: theta, zetan: zetan,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  zeta2,
	}
}

func (z *zipf) key(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	s := rng{s: rank}
	return s.next() % z.n
}

// ---- tm-* workloads: operations on one red-black tree ----

const (
	tmKeyRange  = 20000 // point operations draw keys from [0, tmKeyRange)
	tmTreeNodes = 10000 // keys present after set-up
	tmAuditSpan = 600   // keys one audit ranges over (~300 nodes)
	tmSummaries = 4     // summary keys, stored at tmKeyRange+0..3
	tmValShift  = 24    // a point key's value is key<<tmValShift | write counter
)

type tmKind uint8

const (
	tmGet tmKind = iota
	tmPut
	tmDelete
	tmAudit
)

type tmOp struct {
	kind tmKind
	key  uint64 // audit: the low end of the range
	val  uint64 // put: the value; audit: the summary key
}

// tmGen generates one simulated thread's operations. Writes go only to keys
// congruent to the thread's index modulo the thread count, so each thread
// knows the last committed value of every key it owns and can check what
// Get returns for them.
type tmGen struct {
	r         rng
	thread    uint64
	threads   uint64
	auditPct  uint64
	putSerial uint64
}

func (g *tmGen) own(k uint64) uint64 { return k - k%g.threads + g.thread }

func (g *tmGen) next() tmOp {
	if g.auditPct > 0 && g.r.intn(100) < g.auditPct {
		lo := g.r.intn(tmKeyRange - tmAuditSpan)
		sum := tmKeyRange + g.own(g.r.intn(tmSummaries))
		return tmOp{kind: tmAudit, key: lo, val: sum}
	}
	p := g.r.intn(100)
	k := g.r.intn(tmKeyRange)
	switch {
	case p < 90:
		return tmOp{kind: tmGet, key: k}
	case p < 95:
		k = g.own(k)
		g.putSerial++
		return tmOp{kind: tmPut, key: k, val: k<<tmValShift | g.putSerial&(1<<tmValShift-1)}
	default:
		return tmOp{kind: tmDelete, key: g.own(k)}
	}
}

// tmInitialKeys picks the tmTreeNodes keys present after set-up and the
// order they are inserted in: a seeded partial Fisher-Yates shuffle.
func tmInitialKeys(seed uint64) []uint64 {
	r := rng{s: seed ^ 0x5EED0F7EE}
	keys := make([]uint64, tmKeyRange)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for i := 0; i < tmTreeNodes; i++ {
		j := i + int(r.intn(uint64(tmKeyRange-i)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:tmTreeNodes]
}

// tmInitialValue is the value set-up stores under key k.
func tmInitialValue(k uint64) uint64 { return k << tmValShift }

// ---- kv-* workloads: requests against the KV service ----

const (
	kvKeys      = 1 << 16
	kvScanCount = 16
	kvTxnOps    = 4
	kvValShift  = 24
)

// kvMix is a request mix in percent; the remainder after get+put+cas+scan
// is TXN.
type kvMix struct {
	get, put, cas, scan uint64
	zipfTheta           float64 // 0 = uniform keys
	txnAllPuts          bool    // TXN is kvTxnOps PUTs (else 2 GET + 2 PUT)
}

var (
	kvMixedMix   = kvMix{get: 85, put: 8, cas: 2, scan: 3, zipfTheta: 0.99}
	kvDurableMix = kvMix{put: 80, txnAllPuts: true}
)

// kvExpect is what the reply to one generated request must contain: the
// status is always OK, and every result that reads a key the connection
// owns has a known value.
type kvExpect struct {
	n       int // results expected
	check   [kvTxnOps]bool
	val     [kvTxnOps]uint64
	swapped [kvTxnOps]bool
	scanN   int
	scanKey uint64 // first key of the scan
	scanAt  int    // writes generated in this batch before the scan
	scanOwn uint32 // bit j set: scan value j belongs to an owned key
	scan    [kvScanCount]uint64
}

// kvGen generates one connection's requests and the replies they must get.
// Writes go only to keys congruent to the connection's index modulo the
// connection count; the server answers one connection's requests in order,
// so the generator's model of its own keys is exact at generation time,
// pipelined or not.
type kvGen struct {
	r        rng
	mix      kvMix
	z        *zipf
	conn     uint64
	conns    uint64
	model    []uint64 // last value written per key (own keys only are meaningful)
	serial   uint64
	written  uint64 // key/value pairs written so far
	requests uint64
	// undo lists the writes generated since the current batch began, with
	// the value each replaced: a pipelined SCAN may be answered from a
	// snapshot taken before writes sent ahead of it in the same batch (the
	// server's snapshot-scan path runs before the batch's transaction), so
	// it is checked against every value a key held since the batch began.
	undo []kvUndo
}

type kvUndo struct{ key, old uint64 }

// beginBatch marks the point up to which every reply has been received.
func (g *kvGen) beginBatch() { g.undo = g.undo[:0] }

// heldSinceBatch reports whether key k held value v at some point between
// the start of the current batch and its first n writes.
func (g *kvGen) heldSinceBatch(k, v uint64, n int) bool {
	for _, u := range g.undo[:n] {
		if u.key == k && u.old == v {
			return true
		}
	}
	return false
}

func newKVGen(mix kvMix, z *zipf, conn, conns int) *kvGen {
	return &kvGen{mix: mix, z: z, conn: uint64(conn), conns: uint64(conns), model: make([]uint64, kvKeys)}
}

func (g *kvGen) anyKey() uint64 {
	if g.z != nil {
		return g.z.key(&g.r)
	}
	return g.r.intn(kvKeys)
}

func (g *kvGen) ownKey() uint64 {
	k := g.anyKey()
	return k - k%g.conns + g.conn
}

func (g *kvGen) owns(k uint64) bool { return k%g.conns == g.conn }

func (g *kvGen) put(k uint64) uint64 {
	g.serial++
	g.written++
	v := k<<kvValShift | g.serial&(1<<kvValShift-1)
	g.undo = append(g.undo, kvUndo{k, g.model[k]})
	g.model[k] = v
	return v
}

// next fills req (reusing its Ops array) and exp.
func (g *kvGen) next(req *serve.ProtoRequest, exp *kvExpect) {
	g.requests++
	req.ReqID = g.requests<<8 | g.conn
	*exp = kvExpect{n: 1}
	p := g.r.intn(100)
	m := &g.mix
	switch {
	case p < m.get:
		k := g.anyKey()
		req.Opcode = serve.OpcodeGet
		req.Ops = append(req.Ops[:0], serve.Op{Kind: serve.OpGet, Key: k})
		exp.check[0], exp.val[0] = g.owns(k), g.model[k]
	case p < m.get+m.put:
		k := g.ownKey()
		v := g.put(k)
		req.Opcode = serve.OpcodePut
		req.Ops = append(req.Ops[:0], serve.Op{Kind: serve.OpPut, Key: k, Val: v})
		exp.check[0], exp.val[0] = true, v
	case p < m.get+m.put+m.cas:
		k := g.ownKey()
		old := g.model[k]
		exp.check[0], exp.val[0] = true, old
		if g.r.intn(2) == 0 {
			old++ // a CAS that must fail and report the current value
		} else {
			exp.swapped[0] = true
		}
		req.Opcode = serve.OpcodeCas
		op := serve.Op{Kind: serve.OpCas, Key: k, Old: old}
		if exp.swapped[0] {
			op.Val = g.put(k)
		} else {
			op.Val = old + 1
		}
		req.Ops = append(req.Ops[:0], op)
	case p < m.get+m.put+m.cas+m.scan:
		k := g.anyKey()
		if k > kvKeys-kvScanCount {
			k = kvKeys - kvScanCount
		}
		req.Opcode = serve.OpcodeScan
		req.Ops = append(req.Ops[:0], serve.Op{Kind: serve.OpScan, Key: k, Count: kvScanCount})
		exp.scanN, exp.scanKey, exp.scanAt = kvScanCount, k, len(g.undo)
		for j := uint64(0); j < kvScanCount; j++ {
			if g.owns(k + j) {
				exp.scanOwn |= 1 << j
				exp.scan[j] = g.model[k+j]
			}
		}
	default:
		req.Opcode = serve.OpcodeTxn
		req.Ops = req.Ops[:0]
		exp.n = kvTxnOps
		for i := 0; i < kvTxnOps; i++ {
			if m.txnAllPuts || i%2 == 1 {
				k := g.ownKey()
				v := g.put(k)
				req.Ops = append(req.Ops, serve.Op{Kind: serve.OpPut, Key: k, Val: v})
				exp.check[i], exp.val[i] = true, v
			} else {
				k := g.anyKey()
				req.Ops = append(req.Ops, serve.Op{Kind: serve.OpGet, Key: k})
				exp.check[i], exp.val[i] = g.owns(k), g.model[k]
			}
		}
	}
}
