package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"rhnorec/internal/obs"
)

// One listener, two protocols: the accept loop reads a connection's first
// four bytes and demuxes on them — ProtoMagic selects the binary protocol,
// anything else (an HTTP method's first bytes) is replayed in front of the
// connection and handed to net/http. The split costs one extra read per
// connection, not per request.

// listener owns the TCP listener, the demux loop, the embedded HTTP server,
// and the live binary sessions (so Close can cut blocked readers).
type listener struct {
	ln   net.Listener
	srv  *http.Server
	s    *Server
	http chan net.Conn

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	down  bool
}

// Start listens on addr (e.g. "127.0.0.1:0"), serving both protocols.
// It returns the bound address; Close (on the Server) tears it down.
func (s *Server) Start(addr string) (net.Addr, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &listener{
		ln:    nl,
		s:     s,
		http:  make(chan net.Conn),
		conns: map[net.Conn]struct{}{},
	}
	l.srv = &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		nl.Close()
		return nil, fmt.Errorf("serve: Start called twice")
	}
	s.ln = l
	s.mu.Unlock()
	go l.acceptLoop()
	go l.srv.Serve((*httpListener)(l))
	return nl.Addr(), nil
}

// Addr returns the listener's bound address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.ln.Addr()
}

func (l *listener) close() {
	l.mu.Lock()
	l.down = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.ln.Close()
	l.srv.Close()
	for _, c := range conns {
		c.Close()
	}
}

// track registers a live connection; the returned func unregisters it.
// Returns false when the listener is already down.
func (l *listener) track(c net.Conn) (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, false
	}
	l.conns[c] = struct{}{}
	return func() {
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
	}, true
}

func (l *listener) acceptLoop() {
	for {
		c, err := l.ln.Accept()
		if err != nil {
			close(l.http)
			return
		}
		go l.demux(c)
	}
}

// demux routes one fresh connection by its first four bytes.
func (l *listener) demux(c net.Conn) {
	untrack, ok := l.track(c)
	if !ok {
		c.Close()
		return
	}
	var magic [4]byte
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(c, magic[:]); err != nil {
		untrack()
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	if string(magic[:]) == ProtoMagic {
		defer untrack()
		defer c.Close()
		l.s.serveBinary(c)
		return
	}
	// Not ours: replay the peeked bytes and hand the connection to net/http,
	// which takes over its lifetime (the http.Server is Closed with us).
	untrack()
	select {
	case l.http <- &prefixConn{Conn: c, prefix: magic[:]}:
	case <-l.s.stop:
		c.Close()
	}
}

// httpListener adapts the demuxed HTTP connection stream to net.Listener.
type httpListener listener

func (hl *httpListener) Accept() (net.Conn, error) {
	c, ok := <-hl.http
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (hl *httpListener) Close() error   { return nil } // lifetime owned by listener.close
func (hl *httpListener) Addr() net.Addr { return hl.ln.Addr() }

// prefixConn replays already-read bytes before the live connection.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (p *prefixConn) Read(b []byte) (int, error) {
	if len(p.prefix) > 0 {
		n := copy(b, p.prefix)
		p.prefix = p.prefix[n:]
		return n, nil
	}
	return p.Conn.Read(b)
}

// opcodeEndpoint maps a data opcode to its metrics endpoint.
func opcodeEndpoint(opcode uint8) (Endpoint, bool) {
	switch opcode {
	case OpcodeGet:
		return EpGet, true
	case OpcodePut:
		return EpPut, true
	case OpcodeCas:
		return EpCas, true
	case OpcodeScan:
		return EpScan, true
	case OpcodeTxn:
		return EpTxn, true
	}
	return 0, false
}

// maxDrainFrames bounds how many frames one drain collects before replying:
// deep enough to cover any sensible pipeline depth, small enough that a
// firehosing client cannot starve its own replies.
const maxDrainFrames = 64

// binSlot is one drained frame's recycled state: the parsed request (Ops
// backing array reused), the worker envelope (results reused), and the
// immediate-reply fields for frames that never reach a worker (hello, ping,
// parse/validation errors, admission sheds).
type binSlot struct {
	preq      ProtoRequest
	req       request
	w         *worker // sticky worker at parse time (Hello mid-drain moves it)
	reqID     uint64  // echoed reply ID (0 when the frame didn't parse)
	submitted bool    // true: answered by the worker; false: immediate reply
	status    uint8   // immediate reply status
	msg       string  // immediate reply message (bad request / error)
}

// binSession is one binary-protocol connection's recycled serving state.
// Nothing in it is shared: the connection goroutine owns every field, so
// the steady state allocates nothing (gated by BenchmarkServeBinary* and
// TestServeBinarySteadyStateAllocs).
type binSession struct {
	s        *Server
	br       *bufio.Reader
	bw       *bufio.Writer
	identity string
	w        *worker
	durable  bool // OpcodeDurable toggle: write replies wait for fsync
	slots    []*binSlot
	inBuf    []byte
	outBuf   []byte
}

// setIdentity installs a sticky-routing identity and resolves its worker
// once — per session, not per request (ISSUE 8: the per-request
// fnv.New64a() was measurable).
func (sess *binSession) setIdentity(id string) {
	sess.identity = id
	sess.w = sess.s.workerFor(id)
}

// serveBinary runs one binary-protocol session. Each round: block for one
// frame, then drain every complete frame already buffered (pipelining
// clients land many per read), execute the executable ones on this
// goroutine as linked same-worker chains — each fused into as few
// transactions as BatchMax allows — and write all replies, in frame order,
// through one Flush.
func (s *Server) serveBinary(c net.Conn) {
	sess := &binSession{s: s, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	identity := c.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(identity); err == nil {
		identity = host
	}
	sess.setIdentity(identity)
	for sess.drain() {
	}
}

// drain runs one read→execute→reply round; false drops the session (EOF,
// cut connection, framing violation, or write failure).
func (sess *binSession) drain() bool {
	frame, err := ReadFrame(sess.br, sess.inBuf)
	if err != nil {
		return false
	}
	now := obs.Now() // the drain's frames arrived in one read: one stamp
	n := 0
	for {
		sess.inBuf = frame[:0] // parse copies out; buffer free for the next read
		sess.prep(n, frame, now)
		n++
		if n >= maxDrainFrames || !sess.frameBuffered() {
			break
		}
		if frame, err = ReadFrame(sess.br, sess.inBuf); err != nil {
			return false
		}
	}
	sess.s.pipeline.record(n)
	sess.submit(n)
	return sess.reply(n)
}

// frameBuffered reports whether a COMPLETE frame sits in the read buffer:
// reading it cannot block. Depth alone (Buffered() > 0) is not enough — a
// client that stops mid-frame must still get the replies already owed, or a
// request/reply-windowed client deadlocks against us.
func (sess *binSession) frameBuffered() bool {
	if sess.br.Buffered() < 4 {
		return false
	}
	hdr, _ := sess.br.Peek(4)
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return true // complete enough: let ReadFrame surface the violation
	}
	return sess.br.Buffered() >= 4+int(n)
}

// prep parses frame into slot i and classifies it: immediate (answered at
// reply time without a worker) or submitted (envelope filled, stamped with
// the drain's arrival time now, linked and executed by submit).
func (sess *binSession) prep(i int, frame []byte, now int64) {
	for len(sess.slots) <= i {
		sess.slots = append(sess.slots, &binSlot{})
	}
	sl := sess.slots[i]
	sl.submitted = false
	sl.msg = ""
	sl.reqID = 0
	if err := ParseRequestInto(frame, &sl.preq); err != nil {
		sl.status = StatusBadRequest
		sl.msg = err.Error()
		return
	}
	sl.reqID = sl.preq.ReqID
	switch sl.preq.Opcode {
	case OpcodeHello:
		if sl.preq.Hello != "" {
			sess.setIdentity(sl.preq.Hello)
		}
		sl.status = StatusOK
	case OpcodePing:
		sl.status = StatusPong
	case OpcodeDurable:
		// Takes effect mid-drain: frames after this one in the same drain
		// already carry the new mode, mirroring Hello's identity move.
		sess.durable = sl.preq.Durable
		sl.status = StatusOK
	default:
		ep, ok := opcodeEndpoint(sl.preq.Opcode)
		if !ok {
			sl.status = StatusBadRequest
			sl.msg = "unknown opcode"
			return
		}
		if err := sess.s.checkOps(sl.preq.Ops); err != nil {
			sl.status = StatusBadRequest
			sl.msg = err.Error()
			return
		}
		r := &sl.req
		r.ep = ep
		r.ops = sl.preq.Ops
		r.readOnly = readOnlyOps(sl.preq.Ops)
		r.durable = sess.durable
		r.res = growResults(r.res, len(sl.preq.Ops))
		r.err = nil
		r.shed = false
		r.enq = now
		r.deadline = now + sess.s.cfg.RequestTimeout.Nanoseconds()
		r.next = nil
		sl.w = sess.w
		sl.submitted = true
	}
}

// growResults resizes res to n entries, reusing the backing array when the
// capacity suffices. The entries keep their Vals buffers: applyOps writes
// each result through OpResult.overwrite, which carries the buffer along.
func growResults(res []OpResult, n int) []OpResult {
	if cap(res) < n {
		return make([]OpResult, n)
	}
	return res[:n]
}

// submit links maximal runs of same-worker submitted slots into chains and
// executes each chain on this goroutine (worker.exec), in frame order, so
// the connection's requests take effect in the order it sent them.
// Admission happens per chain: the saturation and backlog verdicts a lone
// request would have gotten apply to the whole chain (its requests arrived
// together and would have met the same backlog). Shed chains are
// downgraded to immediate StatusShed replies.
func (sess *binSession) submit(n int) {
	i := 0
	for i < n {
		if !sess.slots[i].submitted {
			i++
			continue
		}
		w := sess.slots[i].w
		var tail *request
		count := 0
		j := i
		for ; j < n; j++ {
			sl := sess.slots[j]
			if !sl.submitted {
				continue // immediate frames don't break a chain
			}
			if sl.w != w {
				break // Hello moved the sticky identity mid-drain
			}
			if tail != nil {
				tail.next = &sl.req
			}
			tail = &sl.req
			count++
		}
		if !w.exec(&sess.slots[i].req, count) {
			for k := i; k < j; k++ {
				if sl := sess.slots[k]; sl.submitted && sl.w == w {
					sl.submitted = false
					sl.status = StatusShed
				}
			}
		}
		i = j
	}
}

// reply writes slot replies in frame order from the answered envelopes and
// flushes once.
func (sess *binSession) reply(n int) bool {
	for i := 0; i < n; i++ {
		sl := sess.slots[i]
		var resp ProtoResponse
		switch {
		case !sl.submitted:
			resp = sess.immediate(sl)
		case sl.req.shed:
			resp = ProtoResponse{Status: StatusShed, RetryAfterMS: sess.s.retryAfterMS()}
		case sl.req.err != nil:
			resp = sess.s.protoReply(sl.reqID, nil, sl.req.err)
		default:
			resp = ProtoResponse{Status: StatusOK, Results: sl.req.res}
		}
		resp.ReqID = sl.reqID
		sess.outBuf = AppendResponse(sess.outBuf[:0], &resp)
		if err := WriteFrame(sess.bw, sess.outBuf); err != nil {
			return false
		}
	}
	return sess.bw.Flush() == nil
}

// emptyResults backs immediate StatusOK replies (hello): zero results on
// the wire without a per-reply allocation.
var emptyResults = []OpResult{}

// immediate renders a slot answered without a worker.
func (sess *binSession) immediate(sl *binSlot) ProtoResponse {
	switch sl.status {
	case StatusOK:
		return ProtoResponse{Status: StatusOK, Results: emptyResults}
	case StatusPong:
		return ProtoResponse{Status: StatusPong}
	case StatusShed:
		return ProtoResponse{Status: StatusShed, RetryAfterMS: sess.s.retryAfterMS()}
	default:
		return ProtoResponse{Status: sl.status, Msg: sl.msg}
	}
}

// retryAfterMS is the shed hint in milliseconds (at least 1).
func (s *Server) retryAfterMS() uint32 {
	ms := s.cfg.RetryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return uint32(ms)
}

// protoReply maps a Do outcome onto the response status vocabulary.
func (s *Server) protoReply(reqID uint64, res []OpResult, err error) ProtoResponse {
	switch {
	case err == nil:
		return ProtoResponse{Status: StatusOK, ReqID: reqID, Results: res}
	case errors.Is(err, ErrShed):
		return ProtoResponse{Status: StatusShed, ReqID: reqID, RetryAfterMS: s.retryAfterMS()}
	default:
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			return ProtoResponse{Status: StatusBadRequest, ReqID: reqID, Msg: reqErr.Error()}
		}
		return ProtoResponse{Status: StatusError, ReqID: reqID, Msg: err.Error()}
	}
}
