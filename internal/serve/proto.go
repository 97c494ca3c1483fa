package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The length-prefixed binary protocol, served on the same listener as HTTP
// (binary.go demuxes on the leading magic). docs/SERVE.md carries the
// byte-level framing table; this file is its source of truth. All integers
// are big-endian.
//
// A connection opens with the 4-byte magic "RHKV", then carries frames in
// both directions:
//
//	frame    := u32 length | payload            (length = len(payload))
//	request  := u8 opcode | u64 reqID | body
//	response := u8 status | u64 reqID | body
//
// The client should open with a Hello naming its routing identity; before
// (or without) one, the connection's remote address is the sticky-routing
// identity. Responses echo the request's reqID, so clients may pipeline.

// ProtoMagic is the connection preamble that selects the binary protocol.
const ProtoMagic = "RHKV"

// MaxFrame bounds one frame's payload; larger length prefixes kill the
// connection (a desynced or hostile peer, not a big request).
const MaxFrame = 1 << 20

// Request opcodes.
const (
	// OpcodeHello sets the connection's sticky-routing identity
	// (body: identity bytes).
	OpcodeHello = 1
	// OpcodeGet is a multi-key read (body: u16 n | n × u64 key).
	OpcodeGet = 2
	// OpcodePut is a single-key write (body: u64 key | u64 val).
	OpcodePut = 3
	// OpcodeCas is a compare-and-swap (body: u64 key | u64 old | u64 new).
	OpcodeCas = 4
	// OpcodeScan is a range read (body: u64 start | u32 count).
	OpcodeScan = 5
	// OpcodeTxn is a multi-op transaction
	// (body: u16 n | n × (u8 kind | u64 key | u64 val | u64 old | u32 count)).
	OpcodeTxn = 6
	// OpcodePing is a liveness no-op (empty body).
	OpcodePing = 7
	// OpcodeDurable toggles the connection's durable-ack mode (body: u8
	// 0 or 1). While on, every write request on this connection is answered
	// only after its redo record is fsynced (see docs/PERSIST.md); on a
	// server without persistence armed the toggle is accepted and inert.
	// Replies with StatusOK and zero results.
	OpcodeDurable = 8
)

// Response status codes.
const (
	// StatusOK carries results
	// (body: u16 n | n × (u8 flags | u64 val | u32 nvals | nvals × u64);
	// flags bit 0 = cas swapped).
	StatusOK = 0
	// StatusBadRequest carries a UTF-8 message (client error).
	StatusBadRequest = 1
	// StatusShed carries a u32 retry-after hint in milliseconds (admission
	// shed — retry later, not a failure).
	StatusShed = 2
	// StatusError carries a UTF-8 message (server error).
	StatusError = 3
	// StatusPong answers a ping (empty body).
	StatusPong = 4
)

// txnOpWire is the fixed wire size of one encoded txn op.
const txnOpWire = 1 + 8 + 8 + 8 + 4

// ProtoRequest is one decoded request frame.
type ProtoRequest struct {
	// Opcode is the request kind (Opcode* constants).
	Opcode uint8
	// ReqID is echoed in the response (client-chosen; pipelining key).
	ReqID uint64
	// Hello is the routing identity (OpcodeHello only).
	Hello string
	// Durable is the durable-ack toggle value (OpcodeDurable only).
	Durable bool
	// Ops is the normalized op list (get/put/cas/scan/txn).
	Ops []Op
}

// ProtoResponse is one decoded response frame.
type ProtoResponse struct {
	// Status is the outcome (Status* constants).
	Status uint8
	// ReqID echoes the request.
	ReqID uint64
	// Results holds StatusOK per-op results.
	Results []OpResult
	// Msg is the StatusBadRequest/StatusError message.
	Msg string
	// RetryAfterMS is the StatusShed backoff hint.
	RetryAfterMS uint32
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	n := uint32(len(payload))
	if bw, ok := w.(io.ByteWriter); ok {
		// Byte-at-a-time header keeps the hot path allocation-free: a
		// stack header array would escape through the io.Writer interface
		// call and cost one heap allocation per frame. Buffered writers
		// (the only hot-path callers) take this branch.
		for shift := 24; shift >= 0; shift -= 8 {
			if err := bw.WriteByte(byte(n >> shift)); err != nil {
				return err
			}
		}
	} else {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, reusing buf when it fits. The
// header is staged in buf too (a stack header array would escape through
// the io.Reader interface call), so a recycled buf makes the whole read
// allocation-free.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendRequest encodes a request frame payload onto buf.
func AppendRequest(buf []byte, req *ProtoRequest) ([]byte, error) {
	buf = append(buf, req.Opcode)
	buf = binary.BigEndian.AppendUint64(buf, req.ReqID)
	switch req.Opcode {
	case OpcodeHello:
		buf = append(buf, req.Hello...)
	case OpcodeGet:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Ops)))
		for i := range req.Ops {
			buf = binary.BigEndian.AppendUint64(buf, req.Ops[i].Key)
		}
	case OpcodePut:
		if len(req.Ops) != 1 {
			return nil, fmt.Errorf("proto: put wants 1 op, have %d", len(req.Ops))
		}
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Key)
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Val)
	case OpcodeCas:
		if len(req.Ops) != 1 {
			return nil, fmt.Errorf("proto: cas wants 1 op, have %d", len(req.Ops))
		}
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Key)
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Old)
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Val)
	case OpcodeScan:
		if len(req.Ops) != 1 {
			return nil, fmt.Errorf("proto: scan wants 1 op, have %d", len(req.Ops))
		}
		buf = binary.BigEndian.AppendUint64(buf, req.Ops[0].Key)
		buf = binary.BigEndian.AppendUint32(buf, req.Ops[0].Count)
	case OpcodeTxn:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Ops)))
		for i := range req.Ops {
			op := &req.Ops[i]
			buf = append(buf, byte(op.Kind))
			buf = binary.BigEndian.AppendUint64(buf, op.Key)
			buf = binary.BigEndian.AppendUint64(buf, op.Val)
			buf = binary.BigEndian.AppendUint64(buf, op.Old)
			buf = binary.BigEndian.AppendUint32(buf, op.Count)
		}
	case OpcodePing:
	case OpcodeDurable:
		var b byte
		if req.Durable {
			b = 1
		}
		buf = append(buf, b)
	default:
		return nil, fmt.Errorf("proto: unknown opcode %d", req.Opcode)
	}
	return buf, nil
}

// ParseRequest decodes a request frame payload.
func ParseRequest(frame []byte) (*ProtoRequest, error) {
	req := new(ProtoRequest)
	if err := ParseRequestInto(frame, req); err != nil {
		return nil, err
	}
	return req, nil
}

// growOps resizes ops to n entries, reusing its backing array when the
// capacity suffices (the pipelined session parses every frame into recycled
// op slices, so the steady state allocates nothing).
func growOps(ops []Op, n int) []Op {
	if cap(ops) < n {
		return make([]Op, n)
	}
	return ops[:n]
}

// ParseRequestInto decodes a request frame payload into req, reusing
// req.Ops' backing array when it is large enough. Every other field is
// overwritten unconditionally, so a recycled req never leaks state between
// frames; the decoded Ops copy everything they need out of frame, so the
// caller may reuse the frame buffer immediately.
func ParseRequestInto(frame []byte, req *ProtoRequest) error {
	if len(frame) < 9 {
		return fmt.Errorf("proto: request frame of %d bytes, want >= 9", len(frame))
	}
	req.Opcode = frame[0]
	req.ReqID = binary.BigEndian.Uint64(frame[1:9])
	req.Hello = ""
	req.Durable = false
	req.Ops = req.Ops[:0]
	body := frame[9:]
	switch req.Opcode {
	case OpcodeHello:
		req.Hello = string(body)
	case OpcodeGet:
		if len(body) < 2 {
			return fmt.Errorf("proto: truncated get body")
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if len(body) != 8*n {
			return fmt.Errorf("proto: get body of %d bytes, want %d for %d keys", len(body), 8*n, n)
		}
		req.Ops = growOps(req.Ops, n)
		for i := 0; i < n; i++ {
			req.Ops[i] = Op{Kind: OpGet, Key: binary.BigEndian.Uint64(body[8*i:])}
		}
	case OpcodePut:
		if len(body) != 16 {
			return fmt.Errorf("proto: put body of %d bytes, want 16", len(body))
		}
		req.Ops = growOps(req.Ops, 1)
		req.Ops[0] = Op{Kind: OpPut, Key: binary.BigEndian.Uint64(body), Val: binary.BigEndian.Uint64(body[8:])}
	case OpcodeCas:
		if len(body) != 24 {
			return fmt.Errorf("proto: cas body of %d bytes, want 24", len(body))
		}
		req.Ops = growOps(req.Ops, 1)
		req.Ops[0] = Op{
			Kind: OpCas,
			Key:  binary.BigEndian.Uint64(body),
			Old:  binary.BigEndian.Uint64(body[8:]),
			Val:  binary.BigEndian.Uint64(body[16:]),
		}
	case OpcodeScan:
		if len(body) != 12 {
			return fmt.Errorf("proto: scan body of %d bytes, want 12", len(body))
		}
		req.Ops = growOps(req.Ops, 1)
		req.Ops[0] = Op{Kind: OpScan, Key: binary.BigEndian.Uint64(body), Count: binary.BigEndian.Uint32(body[8:])}
	case OpcodeTxn:
		if len(body) < 2 {
			return fmt.Errorf("proto: truncated txn body")
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if len(body) != txnOpWire*n {
			return fmt.Errorf("proto: txn body of %d bytes, want %d for %d ops", len(body), txnOpWire*n, n)
		}
		req.Ops = growOps(req.Ops, n)
		for i := 0; i < n; i++ {
			rec := body[txnOpWire*i:]
			req.Ops[i] = Op{
				Kind:  OpKind(rec[0]),
				Key:   binary.BigEndian.Uint64(rec[1:]),
				Val:   binary.BigEndian.Uint64(rec[9:]),
				Old:   binary.BigEndian.Uint64(rec[17:]),
				Count: binary.BigEndian.Uint32(rec[25:]),
			}
		}
	case OpcodePing:
		if len(body) != 0 {
			return fmt.Errorf("proto: ping body of %d bytes, want 0", len(body))
		}
	case OpcodeDurable:
		if len(body) != 1 || body[0] > 1 {
			return fmt.Errorf("proto: durable body must be one byte 0/1")
		}
		req.Durable = body[0] == 1
	default:
		return fmt.Errorf("proto: unknown opcode %d", req.Opcode)
	}
	return nil
}

// AppendResponse encodes a response frame payload onto buf.
func AppendResponse(buf []byte, resp *ProtoResponse) []byte {
	buf = append(buf, resp.Status)
	buf = binary.BigEndian.AppendUint64(buf, resp.ReqID)
	switch resp.Status {
	case StatusOK:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(resp.Results)))
		for i := range resp.Results {
			res := &resp.Results[i]
			var flags byte
			if res.Swapped {
				flags |= 1
			}
			buf = append(buf, flags)
			buf = binary.BigEndian.AppendUint64(buf, res.Val)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Vals)))
			for _, v := range res.Vals {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
		}
	case StatusBadRequest, StatusError:
		buf = append(buf, resp.Msg...)
	case StatusShed:
		buf = binary.BigEndian.AppendUint32(buf, resp.RetryAfterMS)
	}
	return buf
}

// ParseResponse decodes a response frame payload.
func ParseResponse(frame []byte) (*ProtoResponse, error) {
	resp := new(ProtoResponse)
	if err := ParseResponseInto(frame, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ParseResponseInto decodes a response frame payload into resp, reusing
// resp.Results when its capacity suffices — the client-side twin of
// ParseRequestInto, used by pipelining clients to keep the reply-drain loop
// allocation-free. Each result is written through OpResult.overwrite, so a
// recycled slot keeps its Vals backing array whichever result lands in it.
// Every field is overwritten unconditionally, so a recycled resp never
// leaks state between frames.
func ParseResponseInto(frame []byte, resp *ProtoResponse) error {
	if len(frame) < 9 {
		return fmt.Errorf("proto: response frame of %d bytes, want >= 9", len(frame))
	}
	resp.Status = frame[0]
	resp.ReqID = binary.BigEndian.Uint64(frame[1:9])
	resp.Msg = ""
	resp.RetryAfterMS = 0
	recycled := resp.Results
	resp.Results = nil
	body := frame[9:]
	switch resp.Status {
	case StatusOK:
		if len(body) < 2 {
			return fmt.Errorf("proto: truncated results")
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if cap(recycled) < n {
			recycled = make([]OpResult, 0, n)
		}
		resp.Results = recycled[:0]
		for i := 0; i < n; i++ {
			if len(body) < 13 {
				return fmt.Errorf("proto: truncated result %d", i)
			}
			nvals := int(binary.BigEndian.Uint32(body[9:]))
			if len(body)-13 < 8*nvals {
				return fmt.Errorf("proto: truncated scan values of result %d", i)
			}
			resp.Results = resp.Results[:i+1]
			vals := resp.Results[i].overwrite(binary.BigEndian.Uint64(body[1:]), body[0]&1 != 0, nvals)
			body = body[13:]
			for j := range vals {
				vals[j] = binary.BigEndian.Uint64(body[8*j:])
			}
			body = body[8*nvals:]
		}
		if len(body) != 0 {
			return fmt.Errorf("proto: %d trailing bytes after results", len(body))
		}
	case StatusBadRequest, StatusError:
		resp.Msg = string(body)
	case StatusShed:
		if len(body) != 4 {
			return fmt.Errorf("proto: shed body of %d bytes, want 4", len(body))
		}
		resp.RetryAfterMS = binary.BigEndian.Uint32(body)
	case StatusPong:
		if len(body) != 0 {
			return fmt.Errorf("proto: pong body of %d bytes, want 0", len(body))
		}
	default:
		return fmt.Errorf("proto: unknown status %d", resp.Status)
	}
	return nil
}
