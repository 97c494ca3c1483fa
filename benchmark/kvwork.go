package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"rhnorec/internal/serve"
)

// The kv-* workloads boot the KV service in this process on loopback and
// drive it over the binary protocol, closed loop: each connection sends a
// batch of depth requests through one flush and waits for all the replies.

type kvSpec struct {
	mix     kvMix
	conns   int
	depth   int
	durable bool // DataDir armed, durable ack on every write
}

// kvBoot starts a server; with dataDir it recovers that directory first.
// Server construction, listener start and the connections' handshakes are
// what setup_s times for the kv-* workloads.
func kvBoot(spec kvSpec, dataDir string) (*serve.Server, string, error) {
	cfg := serve.Config{Keys: kvKeys}
	if spec.durable {
		cfg.DataDir = dataDir
		cfg.DurableAcks = true
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// kvClient is one connection with its generator, recycled buffers and
// samples.
type kvClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	out  []byte
	in   []byte
	resp serve.ProtoResponse
	reqs []serve.ProtoRequest
	exps []kvExpect
	gen  *kvGen

	ops, failed uint64
	lat         []float64 // ns per batch round trip
	err         error

	tr                      *tracer
	nReq, nEnc, nWait, nDec uint8
	batches                 int64
}

func kvDial(addr, identity string, depth int, gen *kvGen) (*kvClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &kvClient{
		conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
		reqs: make([]serve.ProtoRequest, depth), exps: make([]kvExpect, depth), gen: gen,
	}
	c.bw.WriteString(serve.ProtoMagic)
	resp, err := c.roundTrip(&serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: identity})
	if err == nil && resp.Status != serve.StatusOK {
		err = fmt.Errorf("hello: status %d %s", resp.Status, resp.Msg)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *kvClient) send(req *serve.ProtoRequest) error {
	payload, err := serve.AppendRequest(c.out[:0], req)
	if err != nil {
		return err
	}
	c.out = payload[:0]
	return serve.WriteFrame(c.bw, payload)
}

func (c *kvClient) recv() (*serve.ProtoResponse, error) {
	frame, err := serve.ReadFrame(c.br, c.in)
	if err != nil {
		return nil, err
	}
	c.in = frame[:0]
	if err := serve.ParseResponseInto(frame, &c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

func (c *kvClient) roundTrip(req *serve.ProtoRequest) (*serve.ProtoResponse, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.recv()
}

// matches reports whether a reply is the one the generator predicted.
func (c *kvClient) matches(resp *serve.ProtoResponse, reqID uint64, exp *kvExpect) bool {
	if resp.Status != serve.StatusOK || resp.ReqID != reqID || len(resp.Results) != exp.n {
		return false
	}
	if exp.scanN > 0 {
		vals := resp.Results[0].Vals
		if len(vals) != exp.scanN {
			return false
		}
		for j, v := range vals {
			if exp.scanOwn&(1<<uint(j)) != 0 && v != exp.scan[j] && !c.gen.heldSinceBatch(exp.scanKey+uint64(j), v, exp.scanAt) {
				return false
			}
		}
		return true
	}
	for i := 0; i < exp.n; i++ {
		r := &resp.Results[i]
		if exp.check[i] && (r.Val != exp.val[i] || r.Swapped != exp.swapped[i]) {
			return false
		}
	}
	return true
}

// batch generates, sends and checks one pipelined batch. A transport error
// is fatal for the connection; a shed or a wrong reply is a failed request.
func (c *kvClient) batch() error {
	tr := c.tr
	var sp int32
	if tr != nil {
		sp = tr.open(c.nReq, -1, c.batches)
	}
	c.gen.beginBatch()
	for i := range c.reqs {
		c.gen.next(&c.reqs[i], &c.exps[i])
	}
	var enc int32
	if tr != nil {
		enc = tr.open(c.nEnc, sp, c.batches)
	}
	for i := range c.reqs {
		if err := c.send(&c.reqs[i]); err != nil {
			return err
		}
	}
	t0 := time.Now()
	var wait int32
	if tr != nil {
		tr.close(enc)
		wait = tr.open(c.nWait, sp, c.batches)
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for i := range c.reqs {
		resp, err := c.recv()
		if err != nil {
			return err
		}
		if tr != nil && i == 0 {
			// the first reply ends the wait; the rest of the loop is decode
			tr.close(wait)
			wait = tr.open(c.nDec, sp, c.batches)
		}
		if !c.matches(resp, c.reqs[i].ReqID, &c.exps[i]) {
			c.failed++
		}
	}
	c.lat = append(c.lat, float64(time.Since(t0)))
	c.ops += uint64(len(c.reqs))
	c.batches++
	if tr != nil {
		tr.close(wait)
		tr.close(sp)
	}
	return nil
}

// kvRun is a booted server plus its connections.
type kvRun struct {
	spec    kvSpec
	dataDir string
	srv     *serve.Server
	clients []*kvClient
}

func newKVRun(spec kvSpec, dataDir string, z *zipf) (*kvRun, error) {
	srv, addr, err := kvBoot(spec, dataDir)
	if err != nil {
		return nil, err
	}
	r := &kvRun{spec: spec, dataDir: dataDir, srv: srv}
	for i := 0; i < spec.conns; i++ {
		c, err := kvDial(addr, fmt.Sprintf("bench-conn-%d", i), spec.depth, newKVGen(spec.mix, z, i, spec.conns))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// block sends reqs requests, split evenly over the connections, and
// returns the wall time.
func (r *kvRun) block(reqs int, seed uint64, trial, block int) (time.Duration, error) {
	batches := reqs / len(r.clients) / r.spec.depth
	for i, c := range r.clients {
		c.gen.r = rng{s: streamSeed(seed, trial, block, i)}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches && c.err == nil; i++ {
				c.err = c.batch()
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, c := range r.clients {
		if c.err != nil {
			return d, c.err
		}
	}
	return d, nil
}

func (r *kvRun) totals() (ops, failed uint64, lat []float64) {
	for _, c := range r.clients {
		ops += c.ops
		failed += c.failed
		lat = append(lat, c.lat...)
	}
	return
}

func (r *kvRun) resetCounts() {
	for _, c := range r.clients {
		c.ops, c.failed, c.lat = 0, 0, c.lat[:0]
	}
}

func (r *kvRun) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
	r.srv.Close()
}

// reopen is the durable probe's last check: close the server, boot a new one
// on the same directory, and read every key each connection owns back over
// the wire. It returns how many keys were read and how many of them were
// wrong.
func (r *kvRun) reopen() (read, wrong uint64, err error) {
	r.close()
	srv, addr, err := kvBoot(r.spec, r.dataDir)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	const perGet = 128
	for i, old := range r.clients {
		c, err := kvDial(addr, fmt.Sprintf("bench-conn-%d", i), 1, old.gen)
		if err != nil {
			return read, wrong, err
		}
		req := serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: 2}
		for k := uint64(i); k < kvKeys; {
			req.Ops = req.Ops[:0]
			for ; k < kvKeys && len(req.Ops) < perGet; k += uint64(len(r.clients)) {
				req.Ops = append(req.Ops, serve.Op{Kind: serve.OpGet, Key: k})
			}
			resp, err := c.roundTrip(&req)
			if err != nil {
				c.conn.Close()
				return read, wrong, err
			}
			read += uint64(len(req.Ops))
			if resp.Status != serve.StatusOK || len(resp.Results) != len(req.Ops) {
				wrong += uint64(len(req.Ops))
				continue
			}
			for j, op := range req.Ops {
				if resp.Results[j].Val != old.gen.model[op.Key] {
					wrong++
				}
			}
		}
		c.conn.Close()
	}
	return read, wrong, nil
}
