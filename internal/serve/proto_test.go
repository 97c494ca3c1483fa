package serve_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"rhnorec/internal/serve"
)

// requestCorpus is one request of every opcode, used by the roundtrip test
// and as the fuzz seed corpus.
func requestCorpus() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{
		{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "client-a"},
		{Opcode: serve.OpcodeGet, ReqID: 2, Ops: []serve.Op{
			{Kind: serve.OpGet, Key: 7}, {Kind: serve.OpGet, Key: 1<<40 + 3}}},
		{Opcode: serve.OpcodePut, ReqID: 3, Ops: []serve.Op{{Kind: serve.OpPut, Key: 9, Val: 1 << 50}}},
		{Opcode: serve.OpcodeCas, ReqID: 4, Ops: []serve.Op{{Kind: serve.OpCas, Key: 2, Old: 5, Val: 6}}},
		{Opcode: serve.OpcodeScan, ReqID: 5, Ops: []serve.Op{{Kind: serve.OpScan, Key: 10, Count: 32}}},
		{Opcode: serve.OpcodeTxn, ReqID: 6, Ops: []serve.Op{
			{Kind: serve.OpGet, Key: 1},
			{Kind: serve.OpPut, Key: 2, Val: 3},
			{Kind: serve.OpCas, Key: 4, Old: 5, Val: 6},
			{Kind: serve.OpScan, Key: 0, Count: 4},
		}},
		{Opcode: serve.OpcodePing, ReqID: 7},
	}
}

func TestProtoRequestRoundtrip(t *testing.T) {
	for _, req := range requestCorpus() {
		frame, err := serve.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("opcode %d: encode: %v", req.Opcode, err)
		}
		got, err := serve.ParseRequest(frame)
		if err != nil {
			t.Fatalf("opcode %d: decode: %v", req.Opcode, err)
		}
		if got.Opcode != req.Opcode || got.ReqID != req.ReqID || got.Hello != req.Hello ||
			!reflect.DeepEqual(normOps(got.Ops), normOps(req.Ops)) {
			t.Errorf("opcode %d roundtrip:\n got %+v\nwant %+v", req.Opcode, got, req)
		}
	}
}

// normOps normalizes nil/empty op slices so DeepEqual compares content.
func normOps(ops []serve.Op) []serve.Op {
	if len(ops) == 0 {
		return nil
	}
	return ops
}

// responseCorpus is one response of every status shape, used by the
// roundtrip and recycled-decode tests and as the fuzz seed corpus.
func responseCorpus() []*serve.ProtoResponse {
	return []*serve.ProtoResponse{
		{Status: serve.StatusOK, ReqID: 1, Results: []serve.OpResult{
			{Val: 42}, {Val: 7, Swapped: true}, {Vals: []uint64{1, 2, 3}}}},
		{Status: serve.StatusOK, ReqID: 2, Results: []serve.OpResult{}},
		{Status: serve.StatusBadRequest, ReqID: 3, Msg: "key 99 out of range"},
		{Status: serve.StatusShed, ReqID: 4, RetryAfterMS: 1500},
		{Status: serve.StatusError, ReqID: 5, Msg: "boom"},
		{Status: serve.StatusPong, ReqID: 6},
	}
}

func TestProtoResponseRoundtrip(t *testing.T) {
	for _, resp := range responseCorpus() {
		frame := serve.AppendResponse(nil, resp)
		got, err := serve.ParseResponse(frame)
		if err != nil {
			t.Fatalf("status %d: decode: %v", resp.Status, err)
		}
		if got.Status != resp.Status || got.ReqID != resp.ReqID || got.Msg != resp.Msg ||
			got.RetryAfterMS != resp.RetryAfterMS || len(got.Results) != len(resp.Results) {
			t.Errorf("status %d roundtrip:\n got %+v\nwant %+v", resp.Status, got, resp)
			continue
		}
		for i := range resp.Results {
			w, g := resp.Results[i], got.Results[i]
			if w.Val != g.Val || w.Swapped != g.Swapped || !reflect.DeepEqual(w.Vals, g.Vals) {
				t.Errorf("status %d result %d: got %+v, want %+v", resp.Status, i, g, w)
			}
		}
	}
}

// requestsEqual compares decoded requests by content (nil and empty op
// slices are the same request).
func requestsEqual(a, b *serve.ProtoRequest) bool {
	return a.Opcode == b.Opcode && a.ReqID == b.ReqID && a.Hello == b.Hello &&
		reflect.DeepEqual(normOps(a.Ops), normOps(b.Ops))
}

// responsesEqual compares decoded responses by content.
func responsesEqual(a, b *serve.ProtoResponse) bool {
	if a.Status != b.Status || a.ReqID != b.ReqID || a.Msg != b.Msg ||
		a.RetryAfterMS != b.RetryAfterMS || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.Val != y.Val || x.Swapped != y.Swapped || len(x.Vals) != len(y.Vals) {
			return false
		}
		for j := range x.Vals {
			if x.Vals[j] != y.Vals[j] {
				return false
			}
		}
	}
	return true
}

// dirtyRequest/dirtyResponse leave a recycled decode target full of stale
// buffers (the widest corpus entries), so a recycled parse that fails to
// overwrite or re-bound a field shows through.
func dirtyRequest(t *testing.T, req *serve.ProtoRequest) {
	t.Helper()
	frame, err := serve.AppendRequest(nil, requestCorpus()[5])
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.ParseRequestInto(frame, req); err != nil {
		t.Fatal(err)
	}
}

func dirtyResponse(t *testing.T, resp *serve.ProtoResponse) {
	t.Helper()
	frame := serve.AppendResponse(nil, responseCorpus()[0])
	if err := serve.ParseResponseInto(frame, resp); err != nil {
		t.Fatal(err)
	}
}

// TestParseRequestIntoRecycled: decoding into a dirty recycled struct must
// produce exactly what a fresh decode does, for every opcode — one request
// envelope serves a whole connection lifetime on the hot path.
func TestParseRequestIntoRecycled(t *testing.T) {
	var recycled serve.ProtoRequest
	for _, req := range requestCorpus() {
		frame, err := serve.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("opcode %d: encode: %v", req.Opcode, err)
		}
		dirtyRequest(t, &recycled)
		if err := serve.ParseRequestInto(frame, &recycled); err != nil {
			t.Fatalf("opcode %d: recycled decode: %v", req.Opcode, err)
		}
		fresh, err := serve.ParseRequest(frame)
		if err != nil {
			t.Fatalf("opcode %d: fresh decode: %v", req.Opcode, err)
		}
		if !requestsEqual(fresh, &recycled) {
			t.Errorf("opcode %d: recycled decode diverged:\n got %+v\nwant %+v", req.Opcode, &recycled, fresh)
		}
	}
}

// TestParseResponseIntoRecycled is the response-side recycled-decode
// equivalence (the pipelined load generator reuses one ProtoResponse per
// connection).
func TestParseResponseIntoRecycled(t *testing.T) {
	var recycled serve.ProtoResponse
	for _, resp := range responseCorpus() {
		frame := serve.AppendResponse(nil, resp)
		dirtyResponse(t, &recycled)
		if err := serve.ParseResponseInto(frame, &recycled); err != nil {
			t.Fatalf("status %d: recycled decode: %v", resp.Status, err)
		}
		fresh, err := serve.ParseResponse(frame)
		if err != nil {
			t.Fatalf("status %d: fresh decode: %v", resp.Status, err)
		}
		if !responsesEqual(fresh, &recycled) {
			t.Errorf("status %d: recycled decode diverged:\n got %+v\nwant %+v", resp.Status, &recycled, fresh)
		}
	}
}

// TestParseResponseIntoAlternatingScan decodes GET and SCAN replies in
// turn into one recycled ProtoResponse, so each result slot switches
// between carrying values and carrying none. Every decode must equal a
// fresh ParseResponse of the same frame (by length of Vals, not by
// nil-ness), and once warm the alternation allocates nothing: a GET result
// keeps the slot's scan buffer for the next scan.
func TestParseResponseIntoAlternatingScan(t *testing.T) {
	scanVals := make([]uint64, 16)
	for i := range scanVals {
		scanVals[i] = uint64(100 + i)
	}
	frames := [][]byte{
		serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusOK, ReqID: 1,
			Results: []serve.OpResult{{Val: 7}}}),
		serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusOK, ReqID: 2,
			Results: []serve.OpResult{{Vals: scanVals}}}),
		serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusOK, ReqID: 3,
			Results: []serve.OpResult{{Val: 8, Swapped: true}, {Vals: scanVals[:4]}}}),
		serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusOK, ReqID: 4,
			Results: []serve.OpResult{{Vals: scanVals[4:]}, {Val: 9}}}),
	}
	var recycled serve.ProtoResponse
	for round := 0; round < 3; round++ {
		for i, frame := range frames {
			if err := serve.ParseResponseInto(frame, &recycled); err != nil {
				t.Fatalf("frame %d: recycled decode: %v", i, err)
			}
			fresh, err := serve.ParseResponse(frame)
			if err != nil {
				t.Fatalf("frame %d: fresh decode: %v", i, err)
			}
			if !responsesEqual(fresh, &recycled) {
				t.Fatalf("round %d frame %d: recycled decode diverged:\n got %+v\nwant %+v", round, i, &recycled, fresh)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, frame := range frames {
			serve.ParseResponseInto(frame, &recycled)
		}
	}); avg != 0 {
		t.Fatalf("alternating GET/SCAN decode allocates %.1f times per pass, want 0", avg)
	}
}

// FuzzParseRequest asserts the decoder never panics and that whatever it
// accepts re-encodes to a frame it accepts again (decode∘encode fixpoint).
func FuzzParseRequest(f *testing.F) {
	for _, req := range requestCorpus() {
		frame, err := serve.AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{serve.OpcodeTxn, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := serve.ParseRequest(frame)
		if err != nil {
			return
		}
		re, err := serve.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (%+v)", err, req)
		}
		if _, err := serve.ParseRequest(re); err != nil {
			t.Fatalf("re-encoded request does not re-decode: %v", err)
		}
		// A recycled decode target (pooled buffers full of a previous
		// request) must accept the same frames and read back identically.
		var recycled serve.ProtoRequest
		dirtyRequest(t, &recycled)
		if err := serve.ParseRequestInto(frame, &recycled); err != nil {
			t.Fatalf("recycled decode rejects what a fresh decode accepted: %v", err)
		}
		if !requestsEqual(req, &recycled) {
			t.Fatalf("recycled decode diverged:\n got %+v\nwant %+v", &recycled, req)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add(serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusOK,
		Results: []serve.OpResult{{Val: 1}, {Vals: []uint64{2, 3}}}}))
	f.Add(serve.AppendResponse(nil, &serve.ProtoResponse{Status: serve.StatusShed, RetryAfterMS: 9}))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp, err := serve.ParseResponse(frame)
		if err != nil {
			return
		}
		re := serve.AppendResponse(nil, resp)
		if _, err := serve.ParseResponse(re); err != nil {
			t.Fatalf("re-encoded response does not re-decode: %v", err)
		}
		var recycled serve.ProtoResponse
		dirtyResponse(t, &recycled)
		if err := serve.ParseResponseInto(frame, &recycled); err != nil {
			t.Fatalf("recycled decode rejects what a fresh decode accepted: %v", err)
		}
		if !responsesEqual(resp, &recycled) {
			t.Fatalf("recycled decode diverged:\n got %+v\nwant %+v", &recycled, resp)
		}
	})
}

// binConn is a minimal test client for the binary protocol.
type binConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialBinary(t *testing.T, addr string) *binConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := io.WriteString(c, serve.ProtoMagic); err != nil {
		t.Fatalf("magic: %v", err)
	}
	return &binConn{c: c, br: bufio.NewReader(c)}
}

func (b *binConn) roundTrip(t *testing.T, req *serve.ProtoRequest) *serve.ProtoResponse {
	t.Helper()
	frame, err := serve.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := serve.WriteFrame(b.c, frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	in, err := serve.ReadFrame(b.br, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	resp, err := serve.ParseResponse(in)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.ReqID != req.ReqID {
		t.Fatalf("reqID %d, want %d", resp.ReqID, req.ReqID)
	}
	return resp
}

// TestBinarySessionAndDemux boots the real demuxed listener and exercises
// both protocols on it: a binary session end to end, then HTTP on the same
// port.
func TestBinarySessionAndDemux(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	bc := dialBinary(t, addr.String())
	defer bc.c.Close()

	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "bin-1"}); resp.Status != serve.StatusOK {
		t.Fatalf("hello: %+v", resp)
	}
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodePing, ReqID: 2}); resp.Status != serve.StatusPong {
		t.Fatalf("ping: %+v", resp)
	}
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 3,
		Ops: []serve.Op{{Kind: serve.OpPut, Key: 5, Val: 77}}}); resp.Status != serve.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: 4,
		Ops: []serve.Op{{Kind: serve.OpGet, Key: 5}}})
	if resp.Status != serve.StatusOK || len(resp.Results) != 1 || resp.Results[0].Val != 77 {
		t.Fatalf("get: %+v", resp)
	}
	resp = bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeTxn, ReqID: 5,
		Ops: []serve.Op{
			{Kind: serve.OpCas, Key: 5, Old: 77, Val: 78},
			{Kind: serve.OpScan, Key: 4, Count: 3},
		}})
	if resp.Status != serve.StatusOK || !resp.Results[0].Swapped || resp.Results[1].Vals[1] != 78 {
		t.Fatalf("txn: %+v", resp)
	}
	// Out-of-range key: client error, session stays usable.
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: 6,
		Ops: []serve.Op{{Kind: serve.OpGet, Key: 1 << 30}}}); resp.Status != serve.StatusBadRequest {
		t.Fatalf("bad key: %+v", resp)
	}
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodePing, ReqID: 7}); resp.Status != serve.StatusPong {
		t.Fatalf("ping after error: %+v", resp)
	}

	// Same port, HTTP: the demux hands non-magic connections to net/http.
	hr, err := http.Get("http://" + addr.String() + "/get?key=5")
	if err != nil {
		t.Fatalf("http on demuxed listener: %v", err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 200 || !bytes.Contains(body, []byte("78")) {
		t.Fatalf("http get: %d %s", hr.StatusCode, body)
	}

	// An oversized frame kills the connection rather than allocating.
	killer := dialBinary(t, addr.String())
	defer killer.c.Close()
	var hdr [4]byte
	hdr[0] = 0xff
	if _, err := killer.c.Write(hdr[:]); err != nil {
		t.Fatalf("oversize header: %v", err)
	}
	killer.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := killer.br.ReadByte(); err == nil {
		t.Fatal("oversized frame did not close the session")
	}
}
