package serve_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"

	"rhnorec/internal/serve"
)

// zaConn is an allocation-free binary-protocol client: request frames are
// prebuilt wire bytes written in one syscall, replies decode into one
// recycled ProtoResponse. Together with the server's recycled session
// state, a steady-state round trip performs zero process-wide heap
// allocations — which is what BenchmarkServeBinary* and the CI gate
// measure (testing counts mallocs across all goroutines, so a hidden
// server-side allocation fails the client-side benchmark).
type zaConn struct {
	c     net.Conn
	br    *bufio.Reader
	inBuf []byte
	resp  serve.ProtoResponse
}

func dialZA(tb testing.TB, addr string) *zaConn {
	tb.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	if _, err := io.WriteString(c, serve.ProtoMagic); err != nil {
		tb.Fatalf("magic: %v", err)
	}
	z := &zaConn{c: c, br: bufio.NewReader(c)}
	hello := buildWire(tb, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "za-1"})
	if err := z.exchange(hello, 1); err != nil {
		tb.Fatalf("hello: %v", err)
	}
	return z
}

// buildWire prebuilds the wire bytes of one or more frames.
func buildWire(tb testing.TB, reqs ...*serve.ProtoRequest) []byte {
	tb.Helper()
	var wire []byte
	for _, req := range reqs {
		payload, err := serve.AppendRequest(nil, req)
		if err != nil {
			tb.Fatalf("encode: %v", err)
		}
		wire = append(wire,
			byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
		wire = append(wire, payload...)
	}
	return wire
}

// exchange writes prebuilt wire bytes and consumes n replies. It is
// allocation-free on the happy path after warmup.
func (z *zaConn) exchange(wire []byte, n int) error {
	if _, err := z.c.Write(wire); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		frame, err := serve.ReadFrame(z.br, z.inBuf)
		if err != nil {
			return err
		}
		z.inBuf = frame[:0]
		if err := serve.ParseResponseInto(frame, &z.resp); err != nil {
			return err
		}
		if z.resp.Status != serve.StatusOK && z.resp.Status != serve.StatusPong {
			return fmt.Errorf("status %d: %s", z.resp.Status, z.resp.Msg)
		}
	}
	return nil
}

func getBatch() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{{Opcode: serve.OpcodeGet, ReqID: 2,
		Ops: []serve.Op{{Kind: serve.OpGet, Key: 7}}}}
}

func putBatch() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{{Opcode: serve.OpcodePut, ReqID: 2,
		Ops: []serve.Op{{Kind: serve.OpPut, Key: 7, Val: 42}}}}
}

func pipelinedBatch() []*serve.ProtoRequest {
	reqs := make([]*serve.ProtoRequest, 8)
	for i := range reqs {
		reqs[i] = &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: uint64(2 + i),
			Ops: []serve.Op{{Kind: serve.OpGet, Key: uint64(i)}}}
	}
	return reqs
}

func putThenGetBatch() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{
		{Opcode: serve.OpcodePut, ReqID: 2, Ops: []serve.Op{{Kind: serve.OpPut, Key: 7, Val: 42}}},
		{Opcode: serve.OpcodeGet, ReqID: 3, Ops: []serve.Op{{Kind: serve.OpGet, Key: 7}}},
	}
}

func scanReq(reqID, key uint64) *serve.ProtoRequest {
	return &serve.ProtoRequest{Opcode: serve.OpcodeScan, ReqID: reqID,
		Ops: []serve.Op{{Kind: serve.OpScan, Key: key, Count: 16}}}
}

func getReq(reqID, key uint64) *serve.ProtoRequest {
	return &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: reqID,
		Ops: []serve.Op{{Kind: serve.OpGet, Key: key}}}
}

func casBatch() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{{Opcode: serve.OpcodeCas, ReqID: 2,
		Ops: []serve.Op{{Kind: serve.OpCas, Key: 7, Old: 0, Val: 1}}}}
}

func txnBatch() []*serve.ProtoRequest {
	return []*serve.ProtoRequest{{Opcode: serve.OpcodeTxn, ReqID: 2, Ops: []serve.Op{
		{Kind: serve.OpGet, Key: 3}, {Kind: serve.OpPut, Key: 4, Val: 9},
		{Kind: serve.OpGet, Key: 5}, {Kind: serve.OpPut, Key: 6, Val: 9}}}}
}

// mixedBatch is a depth-8 pipeline in the benchmark's kv mix: mostly GETs,
// with a PUT, a CAS, a 16-key SCAN and a 2 GET + 2 PUT TXN.
func mixedBatch() []*serve.ProtoRequest {
	put, cas, txn := putBatch()[0], casBatch()[0], txnBatch()[0]
	put.ReqID, cas.ReqID, txn.ReqID = 3, 5, 9
	return []*serve.ProtoRequest{
		getReq(2, 1), put, getReq(4, 2), cas, scanReq(6, 8), getReq(7, 40), getReq(8, 41), txn,
	}
}

// binaryShapes are the request batches the BenchmarkServeBinary*
// benchmarks time, plus a PUT-then-GET pair and a shape per remaining
// opcode; TestServeBinarySteadyStateAllocs holds each round trip to zero
// allocations. A shape with two rounds sends them alternately: rotate
// moves a SCAN and a GET between the same two slots every round, on both
// sides of the wire.
var binaryShapes = []struct {
	name   string
	rounds [][]*serve.ProtoRequest
}{
	{"get", [][]*serve.ProtoRequest{getBatch()}},
	{"put", [][]*serve.ProtoRequest{putBatch()}},
	{"pipelined", [][]*serve.ProtoRequest{pipelinedBatch()}},
	{"put then get", [][]*serve.ProtoRequest{putThenGetBatch()}},
	{"rotate", [][]*serve.ProtoRequest{{scanReq(2, 0), getReq(3, 7)}, {getReq(2, 7), scanReq(3, 0)}}},
	{"cas", [][]*serve.ProtoRequest{casBatch()}},
	{"txn", [][]*serve.ProtoRequest{txnBatch()}},
	{"mixed", [][]*serve.ProtoRequest{mixedBatch()}},
}

// binaryRoundTrip starts a server, dials it and returns one steady-state
// round trip, after warming every recycled buffer on both sides. Each call
// sends the next of rounds' prebuilt frame batches, in turn.
func binaryRoundTrip(tb testing.TB, rounds ...[]*serve.ProtoRequest) func() {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	z := dialZA(tb, addr.String())
	tb.Cleanup(func() { z.c.Close() })
	wires := make([][]byte, len(rounds))
	for i, reqs := range rounds {
		wires[i] = buildWire(tb, reqs...)
	}
	next := 0
	step := func() {
		if err := z.exchange(wires[next], len(rounds[next])); err != nil {
			tb.Fatal(err)
		}
		next = (next + 1) % len(rounds)
	}
	for i := 0; i < 32; i++ {
		step()
	}
	return step
}

// benchBinary measures steady-state round trips of a request batch.
func benchBinary(b *testing.B, reqs []*serve.ProtoRequest) {
	step := binaryRoundTrip(b, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkServeBinaryGet(b *testing.B)       { benchBinary(b, getBatch()) }
func BenchmarkServeBinaryPut(b *testing.B)       { benchBinary(b, putBatch()) }
func BenchmarkServeBinaryPipelined(b *testing.B) { benchBinary(b, pipelinedBatch()) }
func BenchmarkServeBinaryMixed(b *testing.B)     { benchBinary(b, mixedBatch()) }

// TestServeBinarySteadyStateAllocs is the allocation gate of the
// BenchmarkServeBinary* benchmarks: after warmup, a binary round trip —
// client encode, server parse, worker execution, reply encode, client
// decode — performs zero heap allocations process-wide, for GET, PUT, CAS,
// SCAN and TXN frames, pipelined or not, and for a slot whose opcode
// changes every round.
func TestServeBinarySteadyStateAllocs(t *testing.T) {
	for _, shape := range binaryShapes {
		t.Run(shape.name, func(t *testing.T) {
			step := binaryRoundTrip(t, shape.rounds...)
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Fatalf("steady-state binary %s round allocates %.1f times, want 0", shape.name, avg)
			}
		})
	}
}
