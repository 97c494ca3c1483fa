package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rhnorec/internal/serve"
)

func jsonBody(v any) io.Reader {
	b, _ := json.Marshal(v)
	return bytes.NewReader(b)
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// kvClient is one connection's view of the service. doBatch issues
// len(kinds) requests, each on its own endpoint kind so the server's
// per-endpoint metrics rows label the traffic the way the generator meant
// it, and writes request i's verdict to out[i]. A non-nil return is a
// transport failure (write, read, decode): the connection is dead.
type kvClient interface {
	doBatch(kinds []ReqKind, opss [][]serve.Op, out []outcome) error
	close()
}

// outcome is one answered request's verdict: served, shed (HTTP 429 or
// binary StatusShed: back off retryAfter, then resume) or an error status.
type outcome struct {
	shed       bool
	retryAfter time.Duration
	err        error
}

// reqKindPath maps a request kind to its HTTP endpoint path.
var reqKindPath = [NumReqKinds]string{"/get", "/put", "/cas", "/scan", "/txn"}

// httpClient drives the HTTP/JSON transport. Each generator connection owns
// one, with a distinct sticky identity in X-RH-Client.
type httpClient struct {
	base     string
	identity string
	hc       *http.Client
}

func newHTTPClient(addr, identity string) *httpClient {
	return &httpClient{
		base:     "http://" + addr,
		identity: identity,
		// One TCP connection per generator connection: MaxConnsPerHost 1
		// keeps the "conns" flag honest at the transport level too.
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// doBatch issues the requests one after another: HTTP has no frame
// pipelining, so a connection's rounds hold one request each.
func (c *httpClient) doBatch(kinds []ReqKind, opss [][]serve.Op, out []outcome) error {
	for i := range kinds {
		o, err := c.do(kinds[i], opss[i])
		if err != nil {
			return err
		}
		out[i] = o
	}
	return nil
}

func (c *httpClient) do(kind ReqKind, ops []serve.Op) (outcome, error) {
	var (
		req *http.Request
		err error
	)
	switch kind {
	case ReqTxn:
		body := serve.TxnRequest{Ops: make([]serve.TxnOp, len(ops))}
		for i, op := range ops {
			body.Ops[i] = jsonOp(op)
		}
		req, err = http.NewRequest(http.MethodPost, c.base+"/txn", jsonBody(&body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	default:
		q := url.Values{}
		op := ops[0]
		switch kind {
		case ReqGet:
			for _, o := range ops {
				q.Add("key", strconv.FormatUint(o.Key, 10))
			}
		case ReqPut:
			q.Set("key", strconv.FormatUint(op.Key, 10))
			q.Set("val", strconv.FormatUint(op.Val, 10))
		case ReqCas:
			q.Set("key", strconv.FormatUint(op.Key, 10))
			q.Set("old", strconv.FormatUint(op.Old, 10))
			q.Set("new", strconv.FormatUint(op.Val, 10))
		case ReqScan:
			q.Set("start", strconv.FormatUint(op.Key, 10))
			q.Set("count", strconv.FormatUint(uint64(op.Count), 10))
		}
		method := http.MethodGet
		if kind == ReqPut || kind == ReqCas {
			method = http.MethodPost
		}
		req, err = http.NewRequest(method, c.base+reqKindPath[kind]+"?"+q.Encode(), nil)
	}
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("X-RH-Client", c.identity)
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var out serve.TxnResponse
		return outcome{}, jsonDecode(resp.Body, &out)
	case http.StatusTooManyRequests:
		ra := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		return outcome{shed: true, retryAfter: ra}, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return outcome{err: fmt.Errorf("http %d: %s", resp.StatusCode, msg)}, nil
	}
}

// jsonOp converts a normalized op back to its JSON wire form.
func jsonOp(op serve.Op) serve.TxnOp {
	switch op.Kind {
	case serve.OpGet:
		return serve.TxnOp{Op: "get", Key: op.Key}
	case serve.OpPut:
		return serve.TxnOp{Op: "put", Key: op.Key, Val: op.Val}
	case serve.OpCas:
		return serve.TxnOp{Op: "cas", Key: op.Key, Old: op.Old, New: op.Val}
	default:
		return serve.TxnOp{Op: "scan", Key: op.Key, Count: op.Count}
	}
}

// reqKindOpcode maps a request kind to its binary opcode.
var reqKindOpcode = [NumReqKinds]uint8{
	serve.OpcodeGet, serve.OpcodePut, serve.OpcodeCas, serve.OpcodeScan, serve.OpcodeTxn,
}

// binClient drives the binary protocol over one TCP connection.
type binClient struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint64
	buf   []byte
	inBuf []byte
	resp  serve.ProtoResponse // recycled pipelined-reply decode target
}

func newBinClient(addr, identity string) (*binClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &binClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if _, err := c.bw.WriteString(serve.ProtoMagic); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.roundTrip(&serve.ProtoRequest{Opcode: serve.OpcodeHello, Hello: identity}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return c, nil
}

func (c *binClient) close() { c.conn.Close() }

func (c *binClient) roundTrip(req *serve.ProtoRequest) (*serve.ProtoResponse, error) {
	c.reqID++
	req.ReqID = c.reqID
	payload, err := serve.AppendRequest(c.buf[:0], req)
	if err != nil {
		return nil, err
	}
	c.buf = payload[:0]
	if err := serve.WriteFrame(c.bw, payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	frame, err := serve.ReadFrame(c.br, c.inBuf)
	if err != nil {
		return nil, err
	}
	c.inBuf = frame[:0]
	resp, err := serve.ParseResponse(frame)
	if err != nil {
		return nil, err
	}
	if resp.ReqID != req.ReqID {
		return nil, fmt.Errorf("response for req %d, want %d", resp.ReqID, req.ReqID)
	}
	return resp, nil
}

// doBatch pipelines len(kinds) requests on the wire: all frames written
// through one flush, then all replies read in order (the server guarantees
// frame-order replies). out[i] is request i's verdict; a non-nil return is
// a transport failure and the connection is dead. The reply decode reuses
// one recycled ProtoResponse (ParseResponseInto), so a steady-state batch
// allocates only in AppendRequest's op marshaling.
func (c *binClient) doBatch(kinds []ReqKind, opss [][]serve.Op, out []outcome) error {
	firstID := c.reqID + 1
	for i := range kinds {
		c.reqID++
		req := serve.ProtoRequest{Opcode: reqKindOpcode[kinds[i]], ReqID: c.reqID, Ops: opss[i]}
		payload, err := serve.AppendRequest(c.buf[:0], &req)
		if err != nil {
			return err
		}
		c.buf = payload[:0]
		if err := serve.WriteFrame(c.bw, payload); err != nil {
			return err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for i := range kinds {
		frame, err := serve.ReadFrame(c.br, c.inBuf)
		if err != nil {
			return err
		}
		c.inBuf = frame[:0]
		if err := serve.ParseResponseInto(frame, &c.resp); err != nil {
			return err
		}
		if want := firstID + uint64(i); c.resp.ReqID != want {
			return fmt.Errorf("response for req %d, want %d", c.resp.ReqID, want)
		}
		switch c.resp.Status {
		case serve.StatusOK:
			out[i] = outcome{}
		case serve.StatusShed:
			out[i] = outcome{shed: true, retryAfter: time.Duration(c.resp.RetryAfterMS) * time.Millisecond}
		default:
			out[i] = outcome{err: fmt.Errorf("status %d: %s", c.resp.Status, c.resp.Msg)}
		}
	}
	return nil
}
