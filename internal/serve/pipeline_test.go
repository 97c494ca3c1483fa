package serve_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhnorec/internal/serve"
)

// appendWire encodes req and appends its length-prefixed wire frame, so a
// test can hand the kernel several frames in one Write and exercise the
// server's buffered-drain path.
func appendWire(t *testing.T, wire []byte, req *serve.ProtoRequest) []byte {
	t.Helper()
	payload, err := serve.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	wire = append(wire, n[:]...)
	return append(wire, payload...)
}

// appendRawWire frames an arbitrary payload (for deliberately malformed
// requests).
func appendRawWire(wire, payload []byte) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	wire = append(wire, n[:]...)
	return append(wire, payload...)
}

// readResp reads and decodes the next reply frame.
func (b *binConn) readResp(t *testing.T) *serve.ProtoResponse {
	t.Helper()
	in, err := serve.ReadFrame(b.br, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	resp, err := serve.ParseResponse(in)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp
}

func startBinaryServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr.String()
}

// TestBinaryPipelinedDrain: frames written back to back must come back as
// in-order replies, and the server must see them as one multi-frame drain
// (ledgered in a depth>1 pipeline bucket) rather than eight round trips.
func TestBinaryPipelinedDrain(t *testing.T) {
	const depth = 8
	s, addr := startBinaryServer(t, serve.Config{Keys: 64, Workers: 2})
	bc := dialBinary(t, addr)
	defer bc.c.Close()
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "pipe-1"}); resp.Status != serve.StatusOK {
		t.Fatalf("hello status %d", resp.Status)
	}

	// The kernel gets every frame in one write while the session goroutine
	// is parked in its blocking read, so the drain sees them all buffered.
	// A scheduler wakeup between partial deliveries can still split a
	// batch; retry a few times before calling the ledger wrong.
	deepDrained := func() bool {
		for _, b := range s.Snapshot().Pipeline {
			if b.Depth > 1 {
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < 50 && !deepDrained(); attempt++ {
		var wire []byte
		for i := 0; i < depth; i++ {
			wire = appendWire(t, wire, &serve.ProtoRequest{
				Opcode: serve.OpcodePut, ReqID: uint64(10 + i),
				Ops: []serve.Op{{Kind: serve.OpPut, Key: uint64(i), Val: uint64(100 + i)}},
			})
		}
		if _, err := bc.c.Write(wire); err != nil {
			t.Fatalf("write batch: %v", err)
		}
		for i := 0; i < depth; i++ {
			resp := bc.readResp(t)
			if resp.ReqID != uint64(10+i) {
				t.Fatalf("reply %d has reqID %d, want %d (replies must keep frame order)", i, resp.ReqID, 10+i)
			}
			if resp.Status != serve.StatusOK {
				t.Fatalf("reply %d status %d, want OK", i, resp.Status)
			}
		}
	}
	if !deepDrained() {
		t.Fatal("no drain ever batched more than one frame")
	}

	// The writes all landed: read them back through one pipelined batch.
	var wire []byte
	for i := 0; i < depth; i++ {
		wire = appendWire(t, wire, &serve.ProtoRequest{
			Opcode: serve.OpcodeGet, ReqID: uint64(20 + i),
			Ops: []serve.Op{{Kind: serve.OpGet, Key: uint64(i)}},
		})
	}
	if _, err := bc.c.Write(wire); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	for i := 0; i < depth; i++ {
		resp := bc.readResp(t)
		if resp.ReqID != uint64(20+i) || resp.Status != serve.StatusOK {
			t.Fatalf("get reply %d: reqID %d status %d", i, resp.ReqID, resp.Status)
		}
		if len(resp.Results) != 1 || resp.Results[0].Val != uint64(100+i) {
			t.Fatalf("get reply %d results %+v, want val %d", i, resp.Results, 100+i)
		}
	}
}

// TestBinaryPipelinedMixedBatch: immediates (ping, hello), a malformed
// frame, and transactional requests interleaved in one drain must each get
// their own reply, in frame order, without killing the session.
func TestBinaryPipelinedMixedBatch(t *testing.T) {
	_, addr := startBinaryServer(t, serve.Config{Keys: 64, Workers: 2})
	bc := dialBinary(t, addr)
	defer bc.c.Close()

	// Seed key 3 before the batch: the batch's rebound get reads it from a
	// different sticky worker, and cross-worker execution order within one
	// drain is not defined (only reply order is), so the read target must
	// be stable beforehand.
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 99,
		Ops: []serve.Op{{Kind: serve.OpPut, Key: 3, Val: 7}}}); resp.Status != serve.StatusOK {
		t.Fatalf("seed status %d", resp.Status)
	}

	var wire []byte
	wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "ident-a"})
	wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 2,
		Ops: []serve.Op{{Kind: serve.OpPut, Key: 9, Val: 11}}})
	// Truncated request: an opcode byte with no reqID. Parse fails, so the
	// reply cannot echo a request ID.
	wire = appendRawWire(wire, []byte{serve.OpcodeGet})
	wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodePing, ReqID: 4})
	// Mid-drain rebind: later frames in the same drain belong to the new
	// identity (and possibly a different sticky worker).
	wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 5, Hello: "ident-b"})
	wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodeGet, ReqID: 6,
		Ops: []serve.Op{{Kind: serve.OpGet, Key: 3}}})
	if _, err := bc.c.Write(wire); err != nil {
		t.Fatalf("write batch: %v", err)
	}

	want := []struct {
		reqID  uint64
		status uint8
	}{
		{1, serve.StatusOK},
		{2, serve.StatusOK},
		{0, serve.StatusBadRequest},
		{4, serve.StatusPong},
		{5, serve.StatusOK},
		{6, serve.StatusOK},
	}
	for i, w := range want {
		resp := bc.readResp(t)
		if resp.ReqID != w.reqID || resp.Status != w.status {
			t.Fatalf("reply %d: reqID %d status %d, want reqID %d status %d",
				i, resp.ReqID, resp.Status, w.reqID, w.status)
		}
		if w.reqID == 6 && (len(resp.Results) != 1 || resp.Results[0].Val != 7) {
			t.Fatalf("get after rebind returned %+v, want val 7", resp.Results)
		}
	}
}

// TestBinaryRecycledBuffersNoAliasing: the session recycles request
// envelopes, result slices, and frame buffers across drains; every reply
// must still carry exactly its own request's data. Scans are the sharpest
// probe — their result buffers are the largest recycled object. Each scan
// follows its round's puts on the same connection, so it must read them:
// the 2×2 round fits one BatchMax batch, so its scans read the puts from
// inside the same fused transaction.
func TestBinaryRecycledBuffersNoAliasing(t *testing.T) {
	for _, shape := range []struct{ ranges, span uint64 }{{4, 4}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", shape.ranges, shape.span), func(t *testing.T) {
			recycledBuffersNoAliasing(t, shape.ranges, shape.span)
		})
	}
}

func recycledBuffersNoAliasing(t *testing.T, ranges, span uint64) {
	_, addr := startBinaryServer(t, serve.Config{Keys: 64, Workers: 2})
	bc := dialBinary(t, addr)
	defer bc.c.Close()
	if resp := bc.roundTrip(t, &serve.ProtoRequest{Opcode: serve.OpcodeHello, ReqID: 1, Hello: "alias-1"}); resp.Status != serve.StatusOK {
		t.Fatalf("hello status %d", resp.Status)
	}

	for round := uint64(1); round <= 3; round++ {
		// Distinct value per key per round.
		var wire []byte
		for k := uint64(0); k < ranges*span; k++ {
			wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: 100*round + k,
				Ops: []serve.Op{{Kind: serve.OpPut, Key: k, Val: 1000*round + k}}})
		}
		for r := uint64(0); r < ranges; r++ {
			wire = appendWire(t, wire, &serve.ProtoRequest{Opcode: serve.OpcodeScan, ReqID: 200*round + r,
				Ops: []serve.Op{{Kind: serve.OpScan, Key: r * span, Count: uint32(span)}}})
		}
		if _, err := bc.c.Write(wire); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		for k := uint64(0); k < ranges*span; k++ {
			if resp := bc.readResp(t); resp.ReqID != 100*round+k || resp.Status != serve.StatusOK {
				t.Fatalf("round %d put reply %d: reqID %d status %d", round, k, resp.ReqID, resp.Status)
			}
		}
		for r := uint64(0); r < ranges; r++ {
			resp := bc.readResp(t)
			if resp.ReqID != 200*round+r || resp.Status != serve.StatusOK {
				t.Fatalf("round %d scan reply %d: reqID %d status %d", round, r, resp.ReqID, resp.Status)
			}
			if len(resp.Results) != 1 || uint64(len(resp.Results[0].Vals)) != span {
				t.Fatalf("round %d scan %d results %+v", round, r, resp.Results)
			}
			for j, v := range resp.Results[0].Vals {
				if want := 1000*round + r*span + uint64(j); v != want {
					t.Fatalf("round %d scan %d val[%d] = %d, want %d (a recycled buffer bled across requests, or the scan overtook its puts)",
						round, r, j, v, want)
				}
			}
		}
	}
}

// TestRacePipelinedDrainVsClose is the -race exercise for the drain path:
// several connections firehose pipelined batches while the server shuts
// down underneath them. Clients must only ever see clean transport errors
// or well-formed replies — never a torn frame or a race report.
func TestRacePipelinedDrainVsClose(t *testing.T) {
	s, err := serve.New(serve.Config{Keys: 64, Workers: 2, QueueDepth: 32, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const conns = 4
	var (
		wg      sync.WaitGroup
		batches atomic.Int64
		broken  atomic.Int64
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, serve.ProtoMagic); err != nil {
				return
			}
			br := bufio.NewReader(conn)
			var wire []byte
			for i := 0; i < 8; i++ {
				req := serve.ProtoRequest{Opcode: serve.OpcodePut, ReqID: uint64(i + 1),
					Ops: []serve.Op{{Kind: serve.OpPut, Key: uint64(c*8 + i), Val: uint64(i)}}}
				payload, err := serve.AppendRequest(nil, &req)
				if err != nil {
					broken.Add(1)
					return
				}
				wire = appendRawWire(wire, payload)
			}
			var inBuf []byte
			for {
				if _, err := conn.Write(wire); err != nil {
					return
				}
				for i := 0; i < 8; i++ {
					frame, err := serve.ReadFrame(br, inBuf)
					if err != nil {
						return // shutdown closed the conn mid-stream: fine
					}
					inBuf = frame[:0]
					if _, err := serve.ParseResponse(frame); err != nil {
						broken.Add(1) // a torn or corrupt frame is never fine
						return
					}
				}
				batches.Add(1)
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond)
	s.Close()
	wg.Wait()
	if broken.Load() != 0 {
		t.Fatalf("%d connections saw corrupt frames", broken.Load())
	}
	if batches.Load() == 0 {
		t.Fatal("no client completed a batch before shutdown")
	}
}
