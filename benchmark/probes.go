package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rhnorec"
	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/persist"
	"rhnorec/internal/serve"
)

// The layer probes price each layer on its own, from outside: they time
// and count calls into the public functions of mem, htm, the root API
// (core behind it), serve and persist. A timed probe is the median of
// probeRepeats repeats; every repeat is a `<module>.<call>` span.

const probeRepeats = 5

var probeSink uint64

type prober struct {
	t     *tracer
	layer map[string]float64
	smoke bool
}

// timed runs fn(n) probeRepeats times after one discarded repeat and
// records the median cost of one of fn's n calls, in ns, under name.
func (p *prober) timed(name string, n int, fn func(n int)) float64 {
	if p.smoke {
		n = n/100 + 1
	}
	id := p.t.nameID(name)
	fn(n/10 + 1)
	var per []float64
	for i := 0; i < probeRepeats; i++ {
		sp := p.t.open(id, -1, int64(i))
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		p.t.close(sp)
		per = append(per, float64(d)/float64(n))
	}
	v := median(per)
	p.layer[name] = v
	return v
}

func runProbes(w *workload, seed uint64, smoke bool) (*trialResult, error) {
	res := newTrialResult(w)
	res.Layer["host.calib_ns"] = hostCalib()
	base, err := scratchDir(w.name + "-probes")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	p := &prober{t: newTracer(), layer: res.Layer, smoke: smoke}
	p.memProbes()
	p.htmProbes()
	if err := p.coreProbes(seed); err != nil {
		return nil, err
	}
	if err := p.driverProbes(seed, res); err != nil {
		return nil, err
	}
	if err := p.obsProbe(seed); err != nil {
		return nil, err
	}
	if err := p.persistProbes(filepath.Join(base, "log")); err != nil {
		return nil, err
	}
	if w.dur {
		if err := p.persistShape(w, seed); err != nil {
			return nil, err
		}
	}
	if err := p.serveProbes(filepath.Join(base, "kv"), seed, res); err != nil {
		return nil, err
	}
	return res, p.t.write(traceFile(w.name, "-probes"), w.name)
}

// ---- mem ----

func (p *prober) memProbes() {
	m := mem.New(1 << 16)
	base := mem.Addr(1024)
	p.timed("mem.load_plain_ns", 400000, func(n int) {
		var s uint64
		for i := 0; i < n; i++ {
			s += m.LoadPlain(base + mem.Addr(i&1023)*mem.LineWords)
		}
		probeSink += s
	})
	p.timed("mem.store_plain_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			m.StorePlain(base+mem.Addr(i&1023)*mem.LineWords, uint64(i))
		}
	})
	writes := make([]mem.WriteEntry, 4)
	yes := func() bool { return true }
	p.timed("mem.commit_writes_4_ns", 200000, func(n int) {
		for i := 0; i < n; i++ {
			for j := range writes {
				writes[j] = mem.WriteEntry{Addr: base + mem.Addr((i+j)&1023)*mem.LineWords, Value: uint64(i)}
			}
			m.CommitWrites(writes, yes)
		}
	})
	dst := make([]uint64, 16)
	p.timed("mem.snapshot_stride_16_ns", 200000, func(n int) {
		for i := 0; i < n; i++ {
			m.SnapshotStrideTry(base+mem.Addr(i&511)*mem.LineWords, mem.LineWords, dst, 3)
		}
		probeSink += dst[0]
	})
	cache := m.NewThreadCache()
	p.timed("mem.alloc_free_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			a := cache.Alloc(6)
			cache.Free(a, 6)
		}
	})
}

// ---- htm ----

func (p *prober) htmProbes() {
	m := mem.New(1 << 16)
	base := mem.Addr(1024)
	dev := htm.NewDevice(m, htm.Config{})
	dev.SetActiveThreads(1)
	tx := dev.NewTxn()
	var at mem.Addr
	ro := func() {
		var s uint64
		for j := mem.Addr(0); j < 16; j++ {
			s += tx.Load(at + j*mem.LineWords)
		}
		probeSink += s
	}
	p.timed("htm.ro_txn_16_ns", 40000, func(n int) {
		for i := 0; i < n; i++ {
			at = base + mem.Addr(i&255)*mem.LineWords
			if ab := tx.Attempt(ro); ab != nil {
				panic(ab)
			}
		}
	})
	rw := func() {
		for j := mem.Addr(0); j < 4; j++ {
			a := at + j*mem.LineWords
			tx.Store(a, tx.Load(a)+1)
		}
	}
	p.timed("htm.rw_txn_4_ns", 40000, func(n int) {
		for i := 0; i < n; i++ {
			at = base + mem.Addr(i&255)*mem.LineWords
			if ab := tx.Attempt(rw); ab != nil {
				panic(ab)
			}
		}
	})
	// The capacity-mix hardware: a transaction that reads 300 lines must die
	// of capacity at line 257. This is the attempt an audit wastes.
	small := htm.NewDevice(m, htm.Config{ReadCapacityLines: 256, WriteCapacityLines: 64})
	small.SetActiveThreads(1)
	stx := small.NewTxn()
	over := func() {
		for j := mem.Addr(0); j < 300; j++ {
			probeSink += stx.Load(base + j*mem.LineWords)
		}
	}
	p.timed("htm.capacity_abort_ns", 1000, func(n int) {
		for i := 0; i < n; i++ {
			if ab := stx.Attempt(over); ab == nil || ab.Code != htm.Capacity {
				panic("htm probe: expected a capacity abort")
			}
		}
	})
}

// ---- core, through the root API ----

// coreProbes times one Get and one Put of an existing key on each path of
// the RH NOrec driver: the hardware fast path, the mixed slow path (fast
// path disabled) and the all-software path (prefix and postfix disabled
// too).
func (p *prober) coreProbes(seed uint64) error {
	keys := tmInitialKeys(seed)
	for _, c := range []struct {
		get, put string
		policy   rhnorec.RetryPolicy
	}{
		{"core.fast_get_ns", "core.fast_put_ns", rhnorec.RetryPolicy{}},
		{"core.slow_get_ns", "core.slow_put_ns", rhnorec.RetryPolicy{DisableFast: true}},
		{"", "core.software_put_ns", rhnorec.RetryPolicy{DisableFast: true, DisablePrefix: true, DisablePostfix: true}},
	} {
		s, err := tmSetup(tmSpec{policy: c.policy}, 1, keys)
		if err != nil {
			return err
		}
		th := s.sys.NewThread()
		var key, val uint64
		get := func(tx rhnorec.Tx) error { v, _ := s.tree.Get(tx, key); probeSink += v; return nil }
		put := func(tx rhnorec.Tx) error { s.tree.Put(tx, key, val); return nil }
		if c.get != "" {
			p.timed(c.get, 20000, func(n int) {
				for i := 0; i < n; i++ {
					key = keys[i%len(keys)]
					th.RunReadOnly(get)
				}
			})
		}
		p.timed(c.put, 20000, func(n int) {
			for i := 0; i < n; i++ {
				key = keys[i%len(keys)]
				val = tmInitialValue(key) | uint64(i&0xffff)
				th.Run(put)
			}
		})
		th.Close()
	}
	return nil
}

// ---- drivers ----

// driverProbes runs each of the eight drivers briefly on the capacity-mix
// inputs, two simulated threads, and checks its results like the workload
// does.
func (p *prober) driverProbes(seed uint64, res *trialResult) error {
	spec := *workloadByName(onCap).tm
	blockOps, blocks := 1000, 4
	if p.smoke {
		blockOps, blocks = 100, 1
	}
	algos := make([]string, 0, len(tmAlgos))
	for a := range tmAlgos {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, algo := range algos {
		spec.algo = algo
		name := "drivers." + algo + ".ops_per_s"
		id := p.t.nameID(name)
		r, err := newTMRun(spec, 2, seed)
		if err != nil {
			return err
		}
		r.block(blockOps, seed, 0, 0)
		var rates []float64
		for b := 1; b <= blocks; b++ {
			sp := p.t.open(id, -1, int64(b))
			d, _ := r.block(blockOps, seed, 0, b)
			p.t.close(sp)
			rates = append(rates, float64(blockOps)/d.Seconds())
		}
		ops, failed, _ := r.totals()
		res.Attempted += ops
		res.Failed += failed
		err = r.check()
		r.close()
		if err != nil {
			return fmt.Errorf("driver %s: %w", algo, err)
		}
		p.layer[name] = median(rates)
	}
	if hy := p.layer["drivers.hy-norec.ops_per_s"]; hy > 0 {
		p.layer["drivers.rh_over_hy"] = p.layer["drivers.rh-norec.ops_per_s"] / hy
	}
	return nil
}

// ---- obs ----

// obsProbe runs tm-rbtree-read blocks alternately without and with a
// recorder on every thread's Stats().Obs.
func (p *prober) obsProbe(seed uint64) error {
	w := workloadByName(onRead)
	r, err := newTMRun(*w.tm, clients, seed)
	if err != nil {
		return err
	}
	defer r.close()
	ops, pairs := w.blockOps, 6
	if p.smoke {
		ops, pairs = w.smokeOps, 1
	}
	recs := make([]*obs.Recorder, len(r.workers))
	for i := range recs {
		recs[i] = obs.NewRecorder(obs.Config{})
	}
	id := p.t.nameID("obs.block")
	r.block(ops, seed, 0, 0)
	var off, on []float64
	for b := 1; b <= 2*pairs; b++ {
		withObs := b%2 == 0
		for i, wk := range r.workers {
			if withObs {
				wk.th.Stats().Obs = recs[i]
			} else {
				wk.th.Stats().Obs = nil
			}
		}
		sp := p.t.open(id, -1, int64(b))
		d, _ := r.block(ops, seed, 0, b)
		p.t.close(sp)
		if withObs {
			on = append(on, float64(ops)/d.Seconds())
		} else {
			off = append(off, float64(ops)/d.Seconds())
		}
	}
	p.layer["obs.overhead_frac"] = 1 - median(on)/median(off)
	return nil
}

// ---- serve ----

func (p *prober) serveProbes(dir string, seed uint64, res *trialResult) error {
	put := serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 7, Ops: []serve.Op{{Kind: serve.OpPut, Key: 1234, Val: 5678}}}
	var buf []byte
	p.timed("serve.encode_req_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = serve.AppendRequest(buf[:0], &put)
		}
	})
	frame := append([]byte(nil), buf...)
	var req serve.ProtoRequest
	p.timed("serve.parse_req_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			serve.ParseRequestInto(frame, &req)
		}
	})
	resp := serve.ProtoResponse{Status: serve.StatusOK, ReqID: 7, Results: []serve.OpResult{{Val: 5678}}}
	p.timed("serve.encode_resp_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			buf = serve.AppendResponse(buf[:0], &resp)
		}
	})
	frame = append(frame[:0], buf...)
	var back serve.ProtoResponse
	p.timed("serve.parse_resp_ns", 400000, func(n int) {
		for i := 0; i < n; i++ {
			serve.ParseResponseInto(frame, &back)
		}
	})

	srv, addr, err := kvBoot(kvSpec{}, "")
	if err != nil {
		return err
	}
	defer srv.Close()
	var doErr error
	getOps := []serve.Op{{Kind: serve.OpGet}}
	doGet := p.timed("serve.do_get_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			getOps[0].Key = uint64(i) % kvKeys
			if _, err := srv.Do("probe", serve.EpGet, getOps); err != nil {
				doErr = err
			}
		}
	})
	putOps := []serve.Op{{Kind: serve.OpPut}}
	p.timed("serve.do_put_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			putOps[0].Key, putOps[0].Val = uint64(i)%kvKeys, uint64(i)
			if _, err := srv.Do("probe", serve.EpPut, putOps); err != nil {
				doErr = err
			}
		}
	})
	c, err := kvDial(addr, "probe", 1, nil)
	if err != nil {
		return err
	}
	defer c.conn.Close()
	get := serve.ProtoRequest{Opcode: serve.OpcodeGet, Ops: []serve.Op{{Kind: serve.OpGet}}}
	wire := p.timed("serve.wire_get_us", 4000, func(n int) {
		for i := 0; i < n; i++ {
			get.ReqID, get.Ops[0].Key = uint64(i), uint64(i)%kvKeys
			if r, err := c.roundTrip(&get); err != nil || r.Status != serve.StatusOK {
				doErr = fmt.Errorf("wire get: status or transport error (%v)", err)
			}
		}
	})
	p.layer["serve.wire_get_us"] = wire / 1e3
	p.layer["serve.transport_us"] = (wire - doGet) / 1e3
	client := &http.Client{}
	defer client.CloseIdleConnections()
	httpPut := p.timed("serve.http_put_us", 1000, func(n int) {
		for i := 0; i < n; i++ {
			r, err := client.Post(fmt.Sprintf("http://%s/put?key=%d&val=%d", addr, i%kvKeys, i), "text/plain", nil)
			if err != nil {
				doErr = err
				continue
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				doErr = fmt.Errorf("http put: status %d", r.StatusCode)
			}
		}
	})
	p.layer["serve.http_put_us"] = httpPut / 1e3
	if doErr != nil {
		return doErr
	}
	return p.durablePut(dir, seed, res)
}

// durablePut is the wire-to-fsync path the issue wanted as a workload: one
// connection, depth 1, every write acked after a group fsync, the redo log
// on the checkout's own disk — then the server is closed, re-opened on the
// same directory and every key read back. It is priced here, without a
// bound, because it is fsync-bound on a shared disk (see README.md).
func (p *prober) durablePut(dir string, seed uint64, res *trialResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r, err := newKVRun(kvSpec{mix: kvDurableMix, conns: 1, depth: 1, durable: true}, dir, nil)
	if err != nil {
		return err
	}
	n := 1000
	if p.smoke {
		n = 50
	}
	sp := p.t.open(p.t.nameID("serve.durable_put_us"), -1, 0)
	_, err = r.block(n, seed, 0, 0)
	p.t.close(sp)
	if err != nil {
		r.close()
		return err
	}
	ops, failed, lat := r.totals()
	sort.Float64s(lat)
	p50, _ := percentile(lat, 50, 10)
	p.layer["serve.durable_put_us"] = p50 / 1e3
	read, wrong, err := r.reopen()
	res.Attempted += ops + read
	res.Failed += failed + wrong
	return err
}

// ---- persist ----

const (
	probeLo = mem.Addr(mem.LineWords)
	probeHi = probeLo + 1024*mem.LineWords
)

func probeAddr(key uint64) mem.Addr { return probeLo + mem.Addr(key%1024)*mem.LineWords }

func openProbeLog(opts persist.Options, apply func(mem.Addr, uint64)) (*persist.Log, persist.RecoveryStats, error) {
	opts.Lo, opts.Hi = probeLo, probeHi
	if apply == nil {
		apply = func(mem.Addr, uint64) {}
	}
	return persist.Open(opts, apply, func(mem.Addr) uint64 { return 0 })
}

func (p *prober) persistProbes(dir string) error {
	log, _, err := openProbeLog(persist.Options{Backend: persist.NewMemBackend()}, nil)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		pairs int
	}{{"persist.append_1_ns", 1}, {"persist.append_4_ns", 4}} {
		writes := make([]mem.WriteEntry, c.pairs)
		p.timed(c.name, 20000, func(n int) {
			for i := 0; i < n; i++ {
				for j := range writes {
					writes[j] = mem.WriteEntry{Addr: probeAddr(uint64(i + j)), Value: uint64(i)}
				}
				log.Append(uint64(i), writes)
			}
			// flushing the buffers is not part of an append; it still falls
			// inside the repeat, once per n appends
			log.Sync()
		})
	}
	if err := log.Close(); err != nil {
		return err
	}

	// The fsync itself, on the file system the durable workload logs to.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	flog, _, err := openProbeLog(persist.Options{Dir: dir}, nil)
	if err != nil {
		return err
	}
	one := make([]mem.WriteEntry, 1)
	var werr error
	wait := p.timed("persist.wait_durable_us", 200, func(n int) {
		for i := 0; i < n; i++ {
			one[0] = mem.WriteEntry{Addr: probeAddr(uint64(i)), Value: uint64(i)}
			flog.Append(uint64(i), one)
			if err := flog.WaitDurable(flog.Appended()); err != nil {
				werr = err
			}
		}
	})
	p.layer["persist.wait_durable_us"] = wait / 1e3
	if err := flog.Close(); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}

	// Recovery: time Open over a log of n one-pair commits.
	commits := 20000
	if p.smoke {
		commits = 200
	}
	id := p.t.nameID("persist.recover_ns_per_commit")
	var per []float64
	for rep := 0; rep < probeRepeats; rep++ {
		b := persist.NewMemBackend()
		l, _, err := openProbeLog(persist.Options{Backend: b}, nil)
		if err != nil {
			return err
		}
		for i := 0; i < commits; i++ {
			one[0] = mem.WriteEntry{Addr: probeAddr(uint64(i)), Value: uint64(i)}
			l.Append(uint64(i), one)
		}
		if err := l.Close(); err != nil {
			return err
		}
		sp := p.t.open(id, -1, int64(rep))
		t0 := time.Now()
		l2, stats, err := openProbeLog(persist.Options{Backend: b}, nil)
		d := time.Since(t0)
		p.t.close(sp)
		if err != nil {
			return err
		}
		l2.Close()
		if stats.Commits != uint64(commits) {
			return fmt.Errorf("persist probe: recovery replayed %d of %d commits", stats.Commits, commits)
		}
		per = append(per, float64(d)/float64(commits))
	}
	p.layer["persist.recover_ns_per_commit"] = median(per)

	lost, err := crashLostAcked(commits / 10)
	p.layer["persist.crash_lost_acked"] = float64(lost)
	return err
}

// crashLostAcked appends n commits to an in-memory backend, acks every
// third one with WaitDurable, takes the backend's crash snapshot (every
// synced byte, half of the unsynced tail: the test, not the OS, discards
// the unflushed bytes) and recovers from it. It returns how many acked
// commits the recovered state lacks; the log's contract says none.
func crashLostAcked(n int) (uint64, error) {
	b := persist.NewMemBackend()
	l, _, err := openProbeLog(persist.Options{Backend: b}, nil)
	if err != nil {
		return 0, err
	}
	type commit struct {
		addr mem.Addr
		val  uint64
	}
	var history []commit
	acked := uint64(0)
	one := make([]mem.WriteEntry, 1)
	for i := 0; i < n; i++ {
		c := commit{probeAddr(uint64(i * 7)), uint64(i + 1)}
		history = append(history, c)
		one[0] = mem.WriteEntry{Addr: c.addr, Value: c.val}
		l.Append(uint64(i), one)
		if i%3 == 0 && i < n-5 {
			if err := l.WaitDurable(l.Appended()); err != nil {
				return 0, err
			}
			acked = l.Appended()
		}
	}
	crashed := b.CrashSnapshot()
	got := map[mem.Addr]uint64{}
	l2, stats, err := openProbeLog(persist.Options{Backend: crashed}, func(a mem.Addr, v uint64) { got[a] = v })
	if err != nil {
		return 0, err
	}
	l2.Close()
	lost := uint64(0)
	if stats.Seq < acked {
		lost = acked - stats.Seq
	}
	// The recovered image must be exactly the first stats.Seq commits.
	want := map[mem.Addr]uint64{}
	for _, c := range history[:min(int(stats.Seq), len(history))] {
		want[c.addr] = c.val
	}
	for a, v := range want {
		if got[a] != v {
			lost++
		}
	}
	return lost, nil
}

// persistShape appends the durable workload's own write sets straight to a
// log and reads back the log's shape: records and bytes per commit. Exact
// for a seed.
func (p *prober) persistShape(w *workload, seed uint64) error {
	b := persist.NewMemBackend()
	l, _, err := persist.Open(persist.Options{Backend: b, Lo: probeLo, Hi: probeLo + kvKeys*mem.LineWords},
		func(mem.Addr, uint64) {}, func(mem.Addr) uint64 { return 0 })
	if err != nil {
		return err
	}
	n := w.tracedOps
	if p.smoke {
		n = w.smokeOps
	}
	var req serve.ProtoRequest
	var exp kvExpect
	var writes []mem.WriteEntry
	for client := 0; client < clients; client++ {
		g := newKVGen(kvDurableMix, nil, client, clients)
		g.r = rng{s: streamSeed(seed, 0, 1, client)}
		for i := 0; i < n/clients; i++ {
			g.beginBatch()
			g.next(&req, &exp)
			writes = writes[:0]
			for _, op := range req.Ops {
				writes = append(writes, mem.WriteEntry{Addr: probeLo + mem.Addr(op.Key)*mem.LineWords, Value: op.Val})
			}
			l.Append(uint64(i), writes)
		}
	}
	if err := l.Sync(); err != nil {
		return err
	}
	c := l.CountersSnapshot()
	names, err := b.List("seg-")
	if err != nil {
		return err
	}
	var bytes uint64
	for _, name := range names {
		data, err := b.ReadFile(name)
		if err != nil {
			return err
		}
		bytes += uint64(len(data))
	}
	p.layer["persist.records_per_commit"] = ratio(c.Records, c.Appends)
	p.layer["persist.log_bytes_per_commit"] = ratio(bytes, c.Appends)
	return l.Close()
}
